import sitscreen


def test_all_names_resolve_once():
    names = sitscreen.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(sitscreen, name)] == []
