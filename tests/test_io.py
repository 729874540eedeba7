import numpy as np
import pytest

from sitscreen.errors import EmptyData, MissingResponse, NonNumericColumn, ParseError
from sitscreen.io import ingest_csv, standardize_columns


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_happy_path(tmp_path):
    path = write(tmp_path, "x1,x2,y\n1,4,0.5\n2,5,0.6\n3,6,0.7\n")
    data = ingest_csv(path, "y")
    assert data.n == 3 and data.p == 2
    assert data.names == ("x1", "x2")
    assert np.array_equal(data.y, [0.5, 0.6, 0.7])
    assert np.array_equal(data.x[:, 1], [4.0, 5.0, 6.0])


def test_response_by_index(tmp_path):
    path = write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
    data = ingest_csv(path, "#1")
    assert np.array_equal(data.y, [2.0, 5.0])
    assert data.names == ("a", "c")


def test_blank_cell_names_position(tmp_path):
    path = write(tmp_path, "x1,x2,y\n1,4,0.5\n2,,0.6\n")
    with pytest.raises(ParseError, match=r"row 3, column 'x2'"):
        ingest_csv(path, "y")


def test_non_numeric_cell(tmp_path):
    path = write(tmp_path, "x1,y\noops,0.5\n2,0.6\n")
    with pytest.raises(NonNumericColumn, match=r"row 2, column 'x1'"):
        ingest_csv(path, "y")


def test_non_finite_rejected(tmp_path):
    path = write(tmp_path, "x1,y\nnan,0.5\n2,0.6\n")
    with pytest.raises(ParseError, match="non-finite"):
        ingest_csv(path, "y")


def test_ragged_row(tmp_path):
    path = write(tmp_path, "x1,x2,y\n1,2,3\n4,5\n")
    with pytest.raises(ParseError, match="row 3"):
        ingest_csv(path, "y")


def test_duplicate_header(tmp_path):
    path = write(tmp_path, "x,x,y\n1,2,3\n")
    with pytest.raises(ParseError, match="duplicate"):
        ingest_csv(path, "y")


def test_missing_response(tmp_path):
    path = write(tmp_path, "x1,y\n1,2\n")
    with pytest.raises(MissingResponse):
        ingest_csv(path, "nope")
    with pytest.raises(MissingResponse):
        ingest_csv(path, "#7")


def test_empty_file(tmp_path):
    with pytest.raises(EmptyData):
        ingest_csv(write(tmp_path, ""), "y")
    with pytest.raises(EmptyData):
        ingest_csv(write(tmp_path, "x,y\n"), "y")


def test_response_only_is_empty_data(tmp_path):
    path = write(tmp_path, "y\n1\n2\n3\n4\n5\n", name="only_y.csv")
    with pytest.raises(EmptyData, match="only_y.csv: no covariate column"):
        ingest_csv(path, "y")


def test_standardize_moments(tmp_path):
    rng = np.random.default_rng(0)
    rows = ["x1,x2,y"]
    for _ in range(50):
        a, b = rng.normal(5, 3), rng.normal(-2, 0.5)
        rows.append(f"{float(a)!r},{float(b)!r},{rng.random()!r}")
    path = write(tmp_path, "\n".join(rows) + "\n")
    data = ingest_csv(path, "y", standardize=True)
    assert np.abs(data.x.mean(axis=0)).max() < 1e-12
    assert np.abs(data.x.var(axis=0, ddof=1) - 1.0).max() < 1e-12


def test_standardize_constant_column_only_centered():
    x = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
    out = standardize_columns(x)
    assert np.array_equal(out[:, 0], np.zeros(10))
    assert out[:, 1].var(ddof=1) == pytest.approx(1.0, abs=1e-12)


def test_quoted_fields(tmp_path):
    path = write(tmp_path, '"x,1",y\n1,2\n3,4\n')
    data = ingest_csv(path, "y")
    assert data.names == ("x,1",)


def test_bom_header_first_column_by_name(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_text("x0,x1,y\n1,4,0.5\n2,5,0.6\n3,6,0.7\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    data = ingest_csv(str(path), "x0")
    assert np.array_equal(data.y, [1.0, 2.0, 3.0])
    assert data.names == ("x1", "y")


def test_undecodable_bytes_are_a_parse_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("x,y\ncaf\xe9,1\n".encode("latin-1"))
    with pytest.raises(ParseError, match=r"latin1\.csv: 'utf-8' codec"):
        ingest_csv(str(path), "y")


def test_oversized_field_is_a_parse_error(tmp_path):
    path = write(tmp_path, 'x,y\n"' + "1" * 200_000 + '",1\n')
    with pytest.raises(ParseError, match="field larger than field limit"):
        ingest_csv(path, "y")
