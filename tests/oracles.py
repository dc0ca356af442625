"""Independent numeric oracles for cross-checking package results.

Everything here deliberately takes a different route than the package:
the t distribution is integrated by adaptive Simpson quadrature instead
of a continued fraction, eigenvalues come from sign-change bisection on
the characteristic polynomial instead of Jacobi rotations, and the
clustering optimum is found by enumerating every partition instead of
Lloyd descent, and CSV files are read cell by cell with the csv module
and ``float`` instead of NumPy's parser.  Agreement between the two
routes is the evidence the tests rely on.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from pcageom.errors import DataError
from pcageom.ingest import DataMatrix


def t_pdf(x: float, df: float) -> float:
    log_coef = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_coef - (df + 1.0) / 2.0 * math.log1p(x * x / df))


def _simpson(fa: float, fm: float, fb: float, a: float, b: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + _adaptive(
        f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1
    )


def integrate(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Adaptive Simpson quadrature of f over [a, b]."""
    fa = f(a)
    fb = f(b)
    fm = f(0.5 * (a + b))
    whole = _simpson(fa, fm, fb, a, b)
    return _adaptive(f, a, b, fa, fm, fb, whole, tol, 48)


def t_cdf(t: float, df: float) -> float:
    """Student-t CDF by quadrature of the density from 0 to |t|."""
    if t == 0.0:
        return 0.5
    area = integrate(lambda x: t_pdf(x, df), 0.0, abs(t))
    return 0.5 + area if t > 0 else 0.5 - area


def charpoly_eigenvalues(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of a symmetric matrix as bisected roots of det(a - xI).

    Roots are located by a sign-change scan of the characteristic
    polynomial over the Gershgorin interval and refined by bisection,
    batched so each step is one stacked determinant call.  Suitable for
    the random test matrices, whose spectra are simple; a grid cell
    holding two roots would hide both, so the scan is refined once if
    the count comes up short.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    radius = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    lo = float((np.diag(a) - radius).min()) - 1.0
    hi = float((np.diag(a) + radius).max()) + 1.0
    eye = np.eye(n)

    def dets(xs: np.ndarray) -> np.ndarray:
        return np.linalg.det(a[None, :, :] - xs[:, None, None] * eye[None, :, :])

    for n_cells in (2001, 20001):
        grid = np.linspace(lo, hi, n_cells)
        vals = dets(grid)
        sign_change = vals[:-1] * vals[1:] < 0.0
        left = grid[:-1][sign_change]
        right = grid[1:][sign_change]
        exact = grid[vals == 0.0]
        if left.size + exact.size >= n:
            break

    f_left = dets(left)
    while np.any(right - left > tol):
        mid = 0.5 * (left + right)
        f_mid = dets(mid)
        take_left = f_left * f_mid <= 0.0
        right = np.where(take_left, mid, right)
        left = np.where(take_left, left, mid)
        f_left = np.where(take_left, f_left, f_mid)

    roots = np.concatenate([0.5 * (left + right), exact])
    return np.sort(roots)[::-1]


def random_correlation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-diagonal positive-semidefinite matrix: a normalized Gram matrix."""
    m = rng.standard_normal((n, n + 2))
    g = m @ m.T
    d = 1.0 / np.sqrt(np.diag(g))
    c = g * d[:, None] * d[None, :]
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 1.0)
    return np.clip(c, -1.0, 1.0)


def random_symmetric_unit_diag(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric matrix with unit diagonal, not necessarily PSD."""
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    s = 0.5 * (m + m.T)
    np.fill_diagonal(s, 1.0)
    return s


def partitions_into_k(n: int, k: int):
    """Yield all partitions of range(n) into exactly k nonempty blocks."""
    labels = [0] * n

    def rec(i: int, used: int):
        if n - i < k - used:
            return
        if i == n:
            if used == k:
                blocks = [[] for _ in range(k)]
                for j in range(n):
                    blocks[labels[j]].append(j)
                yield tuple(tuple(b) for b in blocks)
            return
        for b in range(min(used + 1, k)):
            labels[i] = b
            yield from rec(i + 1, used + 1 if b == used else used)

    yield from rec(0, 0)


def oracle_centroid(points: np.ndarray, metric: str) -> np.ndarray:
    if metric == "l1":
        return np.median(points, axis=0)
    if metric == "cosine":
        unit = points / np.linalg.norm(points, axis=1, keepdims=True)
        direction = unit.sum(axis=0)
        norm = np.linalg.norm(direction)
        return direction / norm if norm > 0.0 else points[0].copy()
    return points.mean(axis=0)


def oracle_distance(x: np.ndarray, c: np.ndarray, metric: str) -> float:
    d = x - c
    if metric == "l1":
        return float(np.abs(d).sum())
    if metric == "l2":
        return float(d @ d)
    if metric == "linf":
        return float(np.abs(d).max())
    nx = float(np.linalg.norm(x))
    nc = float(np.linalg.norm(c))
    if nx == 0.0 or nc == 0.0:
        return 1.0
    return max(0.0, 1.0 - float(x @ c) / (nx * nc))


def partition_cost(points: np.ndarray, blocks, metric: str) -> float:
    total = 0.0
    for block in blocks:
        members = points[list(block)]
        c = oracle_centroid(members, metric)
        total += sum(oracle_distance(p, c, metric) for p in members)
    return total


def best_partition(points: np.ndarray, k: int, metric: str):
    """Exhaustive clustering optimum: (cost, partition as a set of frozensets)."""
    best_cost = math.inf
    best_blocks = None
    for blocks in partitions_into_k(points.shape[0], k):
        cost = partition_cost(points, blocks, metric)
        if cost < best_cost:
            best_cost = cost
            best_blocks = {frozenset(b) for b in blocks}
    return best_cost, best_blocks


def _reference_column(sel: int | str, names: list[str], n_cols: int) -> int:
    if isinstance(sel, int):
        if not 1 <= sel <= n_cols:
            raise DataError(f"ingest: column index {sel} out of range 1..{n_cols}")
        return sel - 1
    try:
        return names.index(sel)
    except ValueError:
        raise DataError(f"ingest: no column named {sel!r}") from None


def reference_load_csv(
    path: str | Path,
    columns: list[int | str] | None = None,
    label_column: int | str | None = None,
    header: bool = False,
) -> DataMatrix:
    """``ingest.load_csv`` as it was before NumPy's parser read the values.

    Every row goes through the csv module and every selected cell
    through ``float``, in a Python double loop.  Kept unchanged as the
    reference for the differential tests; its known differences from
    the package are a UTF-8 byte-order mark, which it keeps as part of
    the first cell, and ``float``'s wider grammar (``1_0``, non-ASCII
    digits).
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
        label_idx = _reference_column(label_column, names, n_cols)
        label_name = names[label_idx]

    if columns is None:
        selected = [i for i in range(n_cols) if i != label_idx]
    else:
        selected = [_reference_column(sel, names, n_cols) for sel in columns]
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
