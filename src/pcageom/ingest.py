"""CSV loading, per-column summaries, and column standardization.

The pipeline correlates the loaded ``DataMatrix`` itself and reads only
its summaries here; ``standardize`` serves library callers who want the
standardized values.  ``summarize`` copies a bounded block of columns
at a time, never the whole matrix, and its summaries are bitwise those
of one transposed copy of all columns.

The loader is deliberately strict: every selected cell must parse as a
finite number, missing values are a hard error, and a data set needs
at least three rows and two columns to be worth analysing.  Downstream
stages rely on those guarantees instead of re-checking them.

Files are UTF-8; a leading byte-order mark, as spreadsheet exports
write, is skipped.  One ``np.loadtxt`` call reads every value, so a
data cell follows NumPy's grammar: after surrounding whitespace, an
ASCII decimal number (sign, digits, point, exponent) or ``inf``,
``infinity`` or ``nan`` in any case, the last three rejected as
non-finite.  ``float`` also reads ``1_0`` and non-ASCII digits; the
loader does not.  A label column is not data: like any unselected
column, its cells are counted but never parsed or kept.  The csv module
reads only the first row (the header, or the field count); when NumPy
refuses a file, the csv module reads it again only to name the row and
column at fault.

NumPy is given the file's path, not an open handle: it reads a path in
large chunks, but iterates a handle one line at a time.  A path goes
through NumPy's data source, which decompresses by file suffix, so a
name ending in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma`` (any case) is
refused before anything is read.
"""

from __future__ import annotations

import csv
import io
import math
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
    "reject_constant_columns",
    "standardize",
]

POPULATION = "population"
SAMPLE = "sample"
# Largest column index a selection may name: a correlation matrix of
# that many variables alone would take 80 GB.
MAX_COLUMNS = 100_000
# Suffixes NumPy's data source decompresses by (np.lib._datasource)
COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
# Values per block of columns that ``summarize`` copies at a time
# (256 KiB): a 24 x 10,000 matrix takes 8 blocks and a 32 x 500 one a
# single block.  On a 2-vCPU host, 2**13 and 2**17 were no faster.
_BLOCK = 1 << 15


def ddof_for(divisor: str) -> int:
    """Map a divisor name to the delta degrees of freedom numpy expects."""
    if divisor == POPULATION:
        return 0
    if divisor == SAMPLE:
        return 1
    raise ValueError(f"ingest: unknown divisor {divisor!r}, expected 'population' or 'sample'")


@dataclass(eq=False)
class ColumnSummary:
    """Mean, standard deviation, and variance of one column, under the caller's divisor."""

    name: str
    mean: float
    std: float
    variance: float


@dataclass(eq=False)
class DataMatrix:
    """Numeric observation matrix with its column names."""

    values: np.ndarray
    column_names: list[str]

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


def _names(first_row: list[str], header: bool) -> list[str]:
    if header:
        return [cell.strip() for cell in first_row]
    return [f"col{i + 1}" for i in range(len(first_row))]


def _select(
    names: list[str], columns: list[int | str] | None, label_column: int | str | None
) -> list[int]:
    """The data columns' indices: by default every column but the label column."""
    n_cols = len(names)
    label_idx = None if label_column is None else _resolve_column(label_column, names, n_cols)
    if columns is None:
        selected = [i for i in range(n_cols) if i != label_idx]
    else:
        selected = [_resolve_column(sel, names, n_cols) for sel in columns]
        if label_idx in selected:
            raise DataError(f"ingest: column {names[label_idx]!r} is both data and label")
    if len(set(selected)) != len(selected):
        raise DataError("ingest: a column was selected twice")
    if len({names[i] for i in selected}) != len(selected):
        raise DataError("ingest: duplicate column names in selection")
    return selected


def _number(cell: str) -> float | None:
    """``float(cell)`` for the cells ``np.loadtxt`` reads too, else None."""
    if cell.isascii() and "_" not in cell:
        try:
            return float(cell)
        except ValueError:
            pass
    return None


def _read(
    path: Path, columns: list[int | str] | None, label_column: int | str | None, header: bool
) -> DataMatrix | None:
    """The data of a well-formed file, or None when ``_fault`` must name a fault.

    The csv module reads the first row; then one ``np.loadtxt`` call
    reads the values from the start of the file, by path: NumPy reads a
    path in chunks, while a handle would hand it one ``str`` per line.
    Columns that are not data, the label column among them, get a
    converter that returns 0.0, so NumPy still checks that every row has
    the same number of fields (``usecols`` would drop that check).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        first = next(filter(None, reader), None)
        if first is None:
            return None
        names = _names(first, header)
        n_cols = len(names)
        skiprows = reader.line_num if header else 0
        selected = _select(names, columns, label_column)
        if len(selected) < 2:
            return None
        # loadtxt warns on a file without data rows
        if header and not any(line.strip("\r\n") for line in fh):
            return None
    converters = dict.fromkeys(set(range(n_cols)) - set(selected), lambda _cell: 0.0)
    values = np.loadtxt(
        str(path), delimiter=",", comments=None, quotechar='"', ndmin=2, skiprows=skiprows,
        converters=converters, encoding="utf-8-sig",
    )
    if len(values) < 3 or values.shape[1] != n_cols:
        return None
    lo, hi = selected[0], selected[-1] + 1
    # one run of columns is a view, so the file's values are held once
    values = values[:, lo:hi] if selected == list(range(lo, hi)) else values.take(selected, axis=1)
    if not np.isfinite(values).all():
        return None
    return DataMatrix(values=values, column_names=[names[i] for i in selected])


def _fault(
    path: Path, columns: list[int | str] | None, label_column: int | str | None, header: bool
) -> DataError:
    """The error naming the first fault of a file ``_read`` did not load.

    Reads every row with the csv module and checks, in this order: the
    file, the field count of each row, the column selection, the row
    and column counts, then each selected cell row by row for a
    missing or non-numeric value, and last for a non-finite one.

    The csv module's field limit is raised for this one read, so a long
    cell that is not data hides no fault.  It still applies where
    ``_read`` is held to it, the first row, and to a faulty data cell,
    which is named by its place rather than quoted.
    """
    limit = csv.field_size_limit()
    try:
        # decoded in one piece: a file reader decoding utf-8-sig reads
        # a file of only b"\xef" or b"\xef\xbb" as empty, not as invalid
        text = path.read_bytes().decode("utf-8-sig")
        # no field is longer than the text
        csv.field_size_limit(max(limit, len(text)))
        rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    except OSError as exc:
        return DataError(f"ingest: cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        return DataError(f"ingest: {path} is not valid UTF-8: {exc.reason}")
    except csv.Error as exc:
        return DataError(f"ingest: {path} is not valid CSV: {exc}")
    finally:
        csv.field_size_limit(limit)
    if not rows:
        return DataError(f"ingest: {path} is empty")
    too_long = f"ingest: {path} is not valid CSV: field larger than field limit ({limit})"
    if any(len(cell) > limit for cell in rows[0]):
        return DataError(f"{too_long} in row 1")

    names = _names(rows[0], header)
    first_line = 2 if header else 1
    data_rows = rows[first_line - 1:]
    for line, row in enumerate(data_rows, first_line):
        if len(row) != len(names):
            return DataError(f"ingest: row {line} has {len(row)} fields, expected {len(names)}")
    try:
        selected = _select(names, columns, label_column)
    except DataError as exc:
        return exc
    if len(data_rows) < 3:
        return DataError(f"ingest: need at least 3 data rows, found {len(data_rows)}")
    if len(selected) < 2:
        return DataError(f"ingest: need at least 2 numeric columns, found {len(selected)}")

    non_finite = None
    for line, row in enumerate(data_rows, first_line):
        for idx in selected:
            cell = row[idx].strip()
            where = f"at row {line}, column {names[idx]!r}"
            if not cell:
                return DataError(f"ingest: missing value {where}")
            value = _number(cell)
            if len(cell) > limit and (value is None or not math.isfinite(value)):
                return DataError(f"{too_long} {where}")
            if value is None:
                return DataError(f"ingest: non-numeric value {cell!r} {where}")
            if non_finite is None and not math.isfinite(value):
                non_finite = DataError(f"ingest: non-finite value {cell!r} {where}")
    return non_finite or DataError(f"ingest: {path} could not be read as a numeric table")


def load_csv(
    path: str | Path,
    columns: list[int | str] | None = None,
    label_column: int | str | None = None,
    header: bool = False,
) -> DataMatrix:
    """Load a comma-separated file into a numeric DataMatrix.

    The file is UTF-8, with or without a byte-order mark.  Blank lines
    are skipped, fields may be quoted with ``"``, and ``#`` is an
    ordinary character.  A data cell is a number in the grammar the
    module docstring gives.  Cells of columns that are not data are not
    parsed, but every row must have as many fields as the first.  The
    csv module reads only the first row, so its 131,072-character field
    limit applies to that row only.

    Args:
        path: file to read.
        columns: which columns become numeric data, each given as a
            1-based index or a header name.  Defaults to every column
            except the label column.
        label_column: optional column of row labels, left out of the
            default selection; its cells are not read.
        header: whether the first row holds column names.

    Returns:
        The selected columns: a view of the array read from the file
        when they are one run of its columns in order (all but a first
        or last label column, say), else a copy.

    Raises:
        DataError: a compressed-file suffix (``.gz``, ``.bz2``, ``.xz``,
            ``.lzma``), unreadable or non-UTF-8 file, a row with a different
            number of fields, unknown column, a non-numeric, non-finite
            or missing cell (reported with its row and column), fewer
            than 3 rows, or fewer than 2 numeric columns.
    """
    path = Path(path)
    if path.suffix.lower() in COMPRESSED_SUFFIXES:
        raise DataError(
            f"ingest: {path} has the compressed-file suffix {path.suffix!r}; "
            "decompress it first, the loader reads plain-text CSV only"
        )
    try:
        data = _read(path, columns, label_column, header)
    except (DataError, OSError, ValueError, csv.Error):
        data = None  # _fault reads the file again to name what failed
    if data is None:
        raise _fault(path, columns, label_column, header)
    return data


def summarize(data: DataMatrix, divisor: str = POPULATION) -> list[ColumnSummary]:
    """Per-column mean, standard deviation, and variance.

    The population divisor (n) is the default throughout the package;
    pass ``divisor="sample"`` for the n-1 convention.  A summary holds
    its column's name and statistics; the row count is ``data.n_rows``.

    The columns are read in blocks of about ``_BLOCK`` values (at least
    one column each), so no copy of the whole matrix is made; every
    summary is bitwise the one a single transposed copy of all columns
    gives.
    """
    # The steps of np.mean and np.var, bit for bit: axis-1 sums over a
    # contiguous copy add each column in the order a 1-D reduction would
    # (axis 0 of the row-major array does not), and squaring that copy in
    # place spares np.var's second array of the block's size.
    rows = data.n_rows
    width = max(1, _BLOCK // max(rows, 1))
    means = np.empty(data.n_cols)
    variances = np.empty(data.n_cols)
    for j in range(0, data.n_cols, width):
        block = np.array(data.values[:, j:j + width].T, dtype=np.float64, order="C")
        means[j:j + width] = block.mean(axis=1)
        block -= means[j:j + width, None]
        variances[j:j + width] = np.square(block, out=block).sum(axis=1)
    variances /= rows - ddof_for(divisor)
    return [
        ColumnSummary(name=name, mean=mean, std=std, variance=var)
        for name, mean, std, var in zip(
            data.column_names, means.tolist(), np.sqrt(variances).tolist(), variances.tolist()
        )
    ]


def reject_constant_columns(data: DataMatrix, summaries: list[ColumnSummary]) -> None:
    """Raise a ``DataError`` naming the first column of ``data`` whose
    values are all equal or whose variance in ``summaries`` is zero.

    A constant column with an inexact mean, such as three cells of 0.1,
    has a std of rounding noise (1.4e-17), not 0, so the values are
    compared as well.
    """
    flat = (np.ptp(data.values, axis=0) == 0.0).tolist()
    for s, is_flat in zip(summaries, flat):
        if is_flat or s.std == 0.0:
            raise DataError(f"ingest: column {s.name!r} has zero variance")


def standardize(data: DataMatrix, divisor: str = POPULATION) -> StandardizedMatrix:
    """Center each column and scale it to unit standard deviation.

    Raises:
        DataError: if a column is constant, since it cannot be scaled
            and carries no correlation information.
    """
    summaries = summarize(data, divisor)
    reject_constant_columns(data, summaries)
    z = data.values - [s.mean for s in summaries]
    z /= [s.std for s in summaries]
    return StandardizedMatrix(values=z, column_names=list(data.column_names), summaries=summaries)
