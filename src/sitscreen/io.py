"""CSV ingestion for the screening CLI.

Input files are RFC-4180 CSV with a header row.  One column is the response,
selected by name or by ``#k`` with k a 0-based column index; every other
column must be numeric.  Rows with missing or non-finite cells are rejected
outright: imputation would silently change ranks and therefore the statistic.
"""

from __future__ import annotations

import csv
import math

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


def ingest_csv(path, response_selector: str, standardize: bool = False) -> Dataset:
    """Parse a CSV file into a Dataset.

    ``standardize`` centers and scales each covariate column to zero mean
    and unit sample variance (ddof=1); constant columns are only centered.
    Parse failures, undecodable bytes included, raise :class:`ParseError`;
    a bad cell is named by row number and column name.
    """
    try:
        return _ingest(path, response_selector, standardize)
    except (UnicodeDecodeError, csv.Error) as err:
        raise ParseError(f"{path}: {err}") from None


def _ingest(path, response_selector: str, standardize: bool) -> Dataset:
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyData(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise ParseError(f"{path}: duplicate column names in header")
        response_idx = resolve_response(header, response_selector)
        if len(header) < 2:
            raise EmptyData(f"{path}: no covariate column besides the response")

        rows = []
        for row_number, row in enumerate(reader, start=2):
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
    table = np.vstack(rows)
    y = table[:, response_idx]
    x = np.delete(table, response_idx, axis=1)
    names = tuple(h for j, h in enumerate(header) if j != response_idx)
    if standardize:
        x = standardize_columns(x)
    return Dataset(x=x, y=y, names=names)


def standardize_columns(x: np.ndarray) -> np.ndarray:
    """Center each column; scale to unit sample variance where possible."""
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=0)
    if x.shape[0] < 2:
        return centered
    sd = centered.std(axis=0, ddof=1)
    sd[sd == 0.0] = 1.0
    return centered / sd
