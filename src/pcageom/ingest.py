"""CSV loading, per-column summaries, and column standardization.

The loader is deliberately strict: every selected cell must parse as a
finite number, missing values are a hard error, and a data set needs
at least three rows and two columns to be worth analysing.  Downstream
stages rely on those guarantees instead of re-checking them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = [
    "POPULATION",
    "SAMPLE",
    "ColumnSummary",
    "DataMatrix",
    "StandardizedMatrix",
    "parse_column_spec",
    "load_csv",
    "summarize",
    "standardize",
]

POPULATION = "population"
SAMPLE = "sample"
# Largest column index a selection may name: a correlation matrix of
# that many variables alone would take 80 GB.
MAX_COLUMNS = 100_000


def ddof_for(divisor: str) -> int:
    """Map a divisor name to the delta degrees of freedom numpy expects."""
    if divisor == POPULATION:
        return 0
    if divisor == SAMPLE:
        return 1
    raise ValueError(f"ingest: unknown divisor {divisor!r}, expected 'population' or 'sample'")


@dataclass(eq=False)
class ColumnSummary:
    """Mean, standard deviation, and variance of one column."""

    name: str
    mean: float
    std: float
    variance: float
    n: int
    divisor: str = POPULATION


@dataclass(eq=False)
class DataMatrix:
    """Numeric observation matrix with column names and optional row labels."""

    values: np.ndarray
    column_names: list[str]
    labels: list[str] | None = None
    label_name: str | None = None

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass(eq=False)
class StandardizedMatrix:
    """Column-standardized data along with the summaries used to produce it."""

    values: np.ndarray
    column_names: list[str]
    summaries: list[ColumnSummary] = field(repr=False)
    divisor: str = POPULATION

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def _index(token: str) -> int | None:
    """The 1-based index an ASCII-digit token spells, else None."""
    token = token.strip()
    if not (token.isascii() and token.isdigit()):
        return None
    digits = token.lstrip("0") or "0"
    if len(digits) > len(str(MAX_COLUMNS)) or int(digits) > MAX_COLUMNS:
        raise DataError(f"ingest: column index {token!r} exceeds {MAX_COLUMNS}")
    return int(digits)


def parse_column_spec(spec: str) -> list[int | str]:
    """Parse a comma-separated column selection into indices and names.

    Tokens are either 1-based column indices (``"2"``), inclusive index
    ranges (``"1-4"``), or literal column names.  Indices are written in
    ASCII digits; anything that does not look like an index or a range
    is treated as a name.  No index may exceed ``MAX_COLUMNS``.
    """
    out: list[int | str] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        index = _index(token)
        if index is not None:
            out.append(index)
            continue
        lo, dash, hi = token.partition("-")
        a = _index(lo) if dash else None
        b = _index(hi) if a is not None else None
        if b is not None:
            if b < a:
                raise DataError(f"ingest: backwards column range {token!r}")
            out.extend(range(a, b + 1))
            continue
        out.append(token)
    if not out:
        raise DataError("ingest: empty column selection")
    return out


def _resolve_column(sel: int | str, names: list[str], n_cols: int) -> int:
    if isinstance(sel, int):
        if not 1 <= sel <= n_cols:
            raise DataError(f"ingest: column index {sel} out of range 1..{n_cols}")
        return sel - 1
    try:
        return names.index(sel)
    except ValueError:
        raise DataError(f"ingest: no column named {sel!r}") from None


def load_csv(
    path: str | Path,
    columns: list[int | str] | None = None,
    label_column: int | str | None = None,
    header: bool = False,
) -> DataMatrix:
    """Load a comma-separated file into a numeric DataMatrix.

    Args:
        path: file to read.
        columns: which columns become numeric data, each given as a
            1-based index or a header name.  Defaults to every column
            except the label column.
        label_column: optional column of row labels (kept as strings).
        header: whether the first row holds column names.

    Raises:
        DataError: unreadable or non-UTF-8 file, unknown column, a
            non-numeric, non-finite or missing cell (reported with its
            row and column), fewer than 3 rows, or fewer than 2 numeric
            columns.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise DataError(f"ingest: cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"ingest: {path} is not valid UTF-8: {exc.reason}") from None
    except csv.Error as exc:
        raise DataError(f"ingest: {path} is not valid CSV: {exc}") from None

    if not rows:
        raise DataError(f"ingest: {path} is empty")

    if header:
        names = [cell.strip() for cell in rows[0]]
        data_rows = rows[1:]
        first_data_line = 2
    else:
        names = [f"col{i + 1}" for i in range(len(rows[0]))]
        data_rows = rows
        first_data_line = 1

    n_cols = len(names)
    for offset, row in enumerate(data_rows):
        if len(row) != n_cols:
            raise DataError(
                f"ingest: row {first_data_line + offset} has {len(row)} fields, expected {n_cols}"
            )

    label_idx: int | None = None
    label_name: str | None = None
    if label_column is not None:
        label_idx = _resolve_column(label_column, names, n_cols)
        label_name = names[label_idx]

    if columns is None:
        selected = [i for i in range(n_cols) if i != label_idx]
    else:
        selected = [_resolve_column(sel, names, n_cols) for sel in columns]
        if label_idx in selected:
            raise DataError(f"ingest: column {names[label_idx]!r} is both data and label")

    if len(set(selected)) != len(selected):
        raise DataError("ingest: a column was selected twice")
    sel_names = [names[i] for i in selected]
    if len(set(sel_names)) != len(sel_names):
        raise DataError("ingest: duplicate column names in selection")

    if len(data_rows) < 3:
        raise DataError(f"ingest: need at least 3 data rows, found {len(data_rows)}")
    if len(selected) < 2:
        raise DataError(f"ingest: need at least 2 numeric columns, found {len(selected)}")

    values = np.empty((len(data_rows), len(selected)), dtype=np.float64)
    for r, row in enumerate(data_rows):
        for c, idx in enumerate(selected):
            cell = row[idx].strip()
            if not cell:
                raise DataError(
                    f"ingest: missing value at row {first_data_line + r}, column {names[idx]!r}"
                )
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise DataError(
                    f"ingest: non-numeric value {cell!r} at row "
                    f"{first_data_line + r}, column {names[idx]!r}"
                ) from None
    finite = np.isfinite(values)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise DataError(
            f"ingest: non-finite value {data_rows[r][selected[c]].strip()!r} at row "
            f"{first_data_line + r}, column {sel_names[c]!r}"
        )

    labels = [row[label_idx].strip() for row in data_rows] if label_idx is not None else None
    return DataMatrix(values=values, column_names=sel_names, labels=labels, label_name=label_name)


def summarize(data: DataMatrix, divisor: str = POPULATION) -> list[ColumnSummary]:
    """Per-column mean, standard deviation, and variance.

    The population divisor (n) is the default throughout the package;
    pass ``divisor="sample"`` for the n-1 convention.
    """
    ddof = ddof_for(divisor)
    n = data.n_rows
    out = []
    for j, name in enumerate(data.column_names):
        col = data.values[:, j]
        var = float(np.var(col, ddof=ddof))
        out.append(
            ColumnSummary(
                name=name,
                mean=float(np.mean(col)),
                std=float(np.sqrt(var)),
                variance=var,
                n=n,
                divisor=divisor,
            )
        )
    return out


def standardize(data: DataMatrix, divisor: str = POPULATION) -> StandardizedMatrix:
    """Center each column and scale it to unit standard deviation.

    Raises:
        DataError: if a column is constant, since it cannot be scaled
            and carries no correlation information.
    """
    summaries = summarize(data, divisor)
    z = np.empty_like(data.values)
    for j, s in enumerate(summaries):
        if s.std == 0.0:
            raise DataError(f"ingest: column {s.name!r} has zero variance")
        z[:, j] = (data.values[:, j] - s.mean) / s.std
    return StandardizedMatrix(
        values=z, column_names=list(data.column_names), summaries=summaries, divisor=divisor
    )
