"""CSV ingestion for the screening CLI.

Input files are RFC-4180 CSV with a header row.  One column is the response,
selected by name or by ``#k`` with k a 0-based column index; every other
column must be numeric.  Rows with missing or non-finite cells are rejected
outright: imputation would silently change ranks and therefore the statistic.
Covariates are kept as read, never centred or scaled: the statistic reads
ranks only, and rescaling floats can merge distinct values.

The data rows are read by one of two paths.  The bulk path streams them
through a single ``np.loadtxt`` call and checks shape and finiteness once.
It keeps a table only where the cell-by-cell scan would return the same
bits; on any doubt (a parse or decode error, a field past
``csv.field_size_limit()``, a row of the wrong width, no rows) it steps
aside and the scan reads the rows again from the start.  A table that
parses but holds a non-finite value is refused with the scan's message,
found by one ``csv.reader`` pass that parses only the offending cell; if
that pass finds anything the scan would word differently, the scan runs.
A pipe cannot be read twice, so it always takes the scan.  The scan, which
parses each cell with ``float()``, words every other error.
"""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np

from .errors import EmptyData, MissingResponse, NonNumericColumn, ParseError
from .screening import Dataset


def resolve_response(header: list[str], selector: str) -> int:
    """Map a ``name`` or ``#index`` selector onto a header position."""
    if selector.startswith("#"):
        try:
            idx = int(selector[1:])
        except ValueError:
            raise MissingResponse(f"bad response index {selector!r}") from None
        if not (0 <= idx < len(header)):
            raise MissingResponse(
                f"response index {idx} outside [0, {len(header) - 1}]"
            )
        return idx
    try:
        return header.index(selector)
    except ValueError:
        raise MissingResponse(f"no column named {selector!r}") from None


def ingest_csv(path, response_selector: str) -> Dataset:
    """Parse a CSV file into a Dataset.

    Parse failures, undecodable bytes included, raise :class:`ParseError`;
    a bad cell is named by row number and column name.
    """
    try:
        return _ingest(path, response_selector)
    except (UnicodeDecodeError, csv.Error) as err:
        raise ParseError(f"{path}: {err}") from None


def _ingest(path, response_selector: str) -> Dataset:
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise EmptyData(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise ParseError(f"{path}: duplicate column names in header")
        response_idx = resolve_response(header, response_selector)
        if len(header) < 2:
            raise EmptyData(f"{path}: no covariate column besides the response")

        table = None
        # Rows read in bulk from a pipe could not be read again by the scan.
        if fh.seekable():
            table = _bulk_rows(fh, len(header))
            if table is not None and not np.isfinite(table).all():
                _refuse_non_finite(fh, path, header, table)
                table = None
            if table is None:
                fh.seek(0)
                next(csv.reader(fh))  # past the header again
        if table is None:
            table = _scan_rows(fh, path, header)

    y = table[:, response_idx]
    x = np.delete(table, response_idx, axis=1)
    names = tuple(h for j, h in enumerate(header) if j != response_idx)
    return Dataset(x=x, y=y, names=names)


def _bulk_rows(fh, width: int) -> np.ndarray | None:
    """All data rows in one ``np.loadtxt`` call, or None to leave them to the scan.

    Only a table the scan would return bit for bit is kept: loadtxt strips
    the same whitespace and rounds through the same ``strtod`` as
    ``float()``, and everything it reads differently (quotes, ``1_000``,
    non-ASCII digits, empty cells) makes it raise.
    """
    limit = csv.field_size_limit()

    def lines():
        for line in fh:
            # csv.reader refuses a field past its size limit; loadtxt does not.
            if len(line) > limit and max(map(len, line.split(","))) > limit:
                raise ValueError("field larger than field limit")
            yield line

    try:
        with warnings.catch_warnings():
            # Zero rows raise too: loadtxt warns "input contained no data".
            warnings.simplefilter("error")
            table = np.loadtxt(lines(), delimiter=",", comments=None,
                               dtype=np.float64, ndmin=2)
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    if table.shape[1] != width:
        return None
    return table


def _refuse_non_finite(fh, path, header: list[str], table: np.ndarray) -> None:
    """Raise the scan's error for a bulk table that parsed but holds a
    non-finite cell; return, to leave the file to the scan, on any doubt.

    Every cell loadtxt accepted is one ``float()`` accepts, so the scan's
    first error is the first non-finite cell in row order.  One
    ``csv.reader`` pass finds its row number and text: it checks the width
    of every row up to it, parses no cell but that one, and checks that the
    cell's text is non-finite.
    """
    row, col = divmod(int(np.argmin(np.isfinite(table))), table.shape[1])
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)  # the header
    data_rows = 0
    for row_number, cells in enumerate(reader, start=2):
        if not cells:
            continue
        if len(cells) != len(header):
            return
        if data_rows == row:
            cell = cells[col].strip()
            try:
                finite = math.isfinite(float(cell))
            except ValueError:
                return
            if finite:
                return
            raise _non_finite(path, row_number, header[col], cell)
        data_rows += 1


def _non_finite(path, row_number: int, name: str, cell: str) -> ParseError:
    return ParseError(f"{path}: row {row_number}, column {name!r}: non-finite value {cell!r}")


def _scan_rows(fh, path, header: list[str]) -> np.ndarray:
    """The data rows cell by cell: the reader that names a bad cell."""
    rows = []
    for row_number, row in enumerate(csv.reader(fh), start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {row_number} has {len(row)} fields, "
                f"expected {len(header)}"
            )
        parsed = np.empty(len(header))
        for j, cell in enumerate(row):
            cell = cell.strip()
            if cell == "":
                raise ParseError(
                    f"{path}: row {row_number}, column {header[j]!r}: "
                    "missing value"
                )
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericColumn(
                    f"{path}: row {row_number}, column {header[j]!r}: "
                    f"non-numeric value {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise _non_finite(path, row_number, header[j], cell)
            parsed[j] = value
        rows.append(parsed)
    if not rows:
        raise EmptyData(f"{path}: no data rows")
    return np.vstack(rows)
