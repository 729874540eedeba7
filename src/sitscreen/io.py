"""CSV ingestion for the screening CLI.

Input files are RFC-4180 CSV with a header row.  One column is the response,
selected by name or by ``#k`` with k a 0-based column index; every other
column must be numeric.  Rows with missing or non-finite cells are rejected
outright: imputation would silently change ranks and therefore the statistic.
Covariates are kept as read, never centred or scaled: the statistic reads
ranks only, and rescaling floats can merge distinct values.

The data rows are read by one of two paths, under one rule: the bulk
path keeps a table only when it is the table the cell-by-cell scan would
return, and otherwise the scan reads the rows again from the start and
words the error.  The bulk path streams the rows through a single
``np.loadtxt`` call and checks shape and finiteness once; a parse or
decode error, a field past ``csv.field_size_limit()``, a row of the wrong
width, no rows or a non-finite value all leave the file to the scan.  A
pipe cannot be read twice, so it always takes the scan.  The scan parses
each cell with ``float()`` and names a bad cell by row and column.
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
            # The scan words a non-finite cell by its row and column.
            if table is not None and not np.isfinite(table).all():
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
                raise ParseError(
                    f"{path}: row {row_number}, column {header[j]!r}: "
                    f"non-finite value {cell!r}"
                )
            parsed[j] = value
        rows.append(parsed)
    if not rows:
        raise EmptyData(f"{path}: no data rows")
    return np.vstack(rows)
