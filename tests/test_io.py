import csv
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sitscreen import io
from sitscreen.errors import (
    EmptyData,
    MissingResponse,
    NonNumericColumn,
    ParseError,
    SitScreenError,
)
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


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 30), st.integers(1, 4), st.data())
def test_standardize_undoes_a_huge_power_of_two(n, p, data):
    # multiples of 2**-20 up to 2**20: no square over- or underflows unscaled
    cells = st.integers(-2**40, 2**40).map(lambda v: v / 2**20)
    x = np.array(data.draw(st.lists(cells, min_size=n * p, max_size=n * p)))
    x = x.reshape(n, p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = standardize_columns(x * 2.0**600)
    assert huge.tobytes() == standardize_columns(x).tobytes()


def test_standardize_keeps_columns_below_the_bound():
    x = np.column_stack([np.arange(6.0) * 2.0**498, np.arange(6.0) * 2.0**501])
    out = standardize_columns(x)
    centered = x[:, 0] - x[:, 0].mean()
    assert out[:, 0].tobytes() == (centered / centered.std(ddof=1)).tobytes()
    assert out[:, 1].tobytes() == standardize_columns(np.arange(6.0)[:, None]).tobytes()


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


def test_oversized_unquoted_finite_field_is_a_parse_error(tmp_path):
    # np.loadtxt reads this cell as 0.0; csv.reader refuses it, and so must we.
    cell = "0." + "0" * 200_000 + "1"
    assert len(cell) > csv.field_size_limit()
    path = write(tmp_path, f"x,y\n1,2\n{cell},1\n3,4\n")
    with pytest.raises(ParseError, match="field larger than field limit"):
        ingest_csv(path, "y")


@pytest.mark.parametrize("text", ["x,y\n", "x,y\n\n\r\n\r\n"])
@pytest.mark.parametrize("action", ["error", "always"])
def test_no_data_rows_leaks_no_warning(tmp_path, text, action):
    path = write(tmp_path, text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(EmptyData, match="no data rows"):
            ingest_csv(path, "y")
    assert caught == []


def _scan_refused(fh, path, header):
    raise AssertionError("the cell-by-cell scan ran")


def test_numeric_file_skips_the_scan(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_scan_rows", _scan_refused)
    path = write(tmp_path, "x1,x2,y\r\n1,4,0.5\r\n\r\n2, 5 ,-6e-1\r\n3,6,1e-400")
    data = ingest_csv(path, "y")
    assert np.array_equal(data.x, [[1, 4], [2, 5], [3, 6]])
    assert np.array_equal(data.y, [0.5, -0.6, 0.0])


def test_wide_file_skips_the_scan(tmp_path, monkeypatch):
    # Genome-width rows are longer than csv.field_size_limit() although no
    # single field is; they must not drop to the scan.
    monkeypatch.setattr(io, "_scan_rows", _scan_refused)
    table = np.random.default_rng(3).standard_normal((4, 8000))
    header = ",".join(["y"] + [f"x{j}" for j in range(1, 8000)])
    lines = [",".join(f"{v:.17g}" for v in row) for row in table]
    assert min(map(len, lines)) > csv.field_size_limit()
    data = ingest_csv(write(tmp_path, "\n".join([header, *lines]) + "\n"), "y")
    assert data.x.tobytes() == np.ascontiguousarray(table[:, 1:]).tobytes()
    assert data.y.tobytes() == np.ascontiguousarray(table[:, 0]).tobytes()


def _outcome(path):
    try:
        data = ingest_csv(path, "y")
    except SitScreenError as err:
        return type(err), str(err).replace(str(path), "<path>")
    return data.names, data.x.shape, data.x.view(np.uint64).tolist(), data.y.view(np.uint64).tolist()


@pytest.mark.parametrize("text", [
    "x,y\n1,2\n3,4\n",
    'x,y\n"1","2"\n3,4\n',
    "x,y\n1,2\nnan,4\n",
])
def test_pipe_reads_like_a_file(tmp_path, text):
    # Rows the bulk read refuses must still reach the scan: a pipe cannot be
    # read twice.
    read_end, write_end = os.pipe()
    os.write(write_end, text.encode("utf-8"))
    os.close(write_end)
    try:
        piped = _outcome(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert piped == _outcome(write(tmp_path, text))


# Cells that float(), csv.reader and np.loadtxt may each read differently.
ODD_CELLS = [
    "1_000", "1__0", "\u0661\u0662", "\u0663.5", "\uff11",
    " 1 ", "\t2", "\x0b3\x0c", "\xa04", "5\u3000", "\x856\x1c",
    "inf", "-Infinity", "+iNfInItY", "nan", "-NaN", "+nan", "INF",
    "1e999", "-1e999", "1e-400", "-1e-400", "-0", "0x10", "1.5e", ".", "1 2",
    '"1.5"', '" 2 "', '"nan"', '"1,5"', 'a"b', "#", "#1", "1#", "\x00", "", " ",
]
BLANK_LINES = ["", " ", "\t", "\x0b", "\x0c", "\xa0", " \t "]


@st.composite
def csv_bytes(draw):
    width = draw(st.integers(2, 4))
    plain = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format),
        st.integers(-(10**30), 10**30).map(str),
    )
    cell = st.one_of(plain, plain, st.floats().map(repr), st.sampled_from(ODD_CELLS))
    lines = [",".join(f"x{j}" for j in range(width - 1)) + ",y"]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row"] * 4 + ["blank", "ragged", "trailing comma"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(BLANK_LINES)))
            continue
        size = width + draw(st.sampled_from([-1, 1])) if kind == "ragged" else width
        line = ",".join(draw(st.lists(cell, min_size=size, max_size=size)))
        lines.append(line + "," if kind == "trailing comma" else line)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text).encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(csv_bytes())
@example(b"x0,x1,y\n1,2\n3,4\n")
@example(b"x,y\n1,2#\n3,4\n")
@example(b"x,y\r1,2\r\r \r3,4")
def test_bulk_read_matches_the_scan(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("diff") / "data.csv"
    path.write_bytes(raw)
    with mock.patch.object(io, "_bulk_rows", lambda fh, width: None):
        expected = _outcome(str(path))
    assert _outcome(str(path)) == expected
