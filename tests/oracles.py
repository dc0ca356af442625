"""Independent numeric oracles for cross-checking package results.

Everything here deliberately takes a different route than the package:
the t distribution is integrated by adaptive Simpson quadrature instead
of a continued fraction, eigenvalues come from sign-change bisection on
the characteristic polynomial instead of LAPACK, correlation matrices
are built around a prescribed spectrum so their eigenvalues are known
before any solver runs, the clustering optimum is found by enumerating
every partition instead of Lloyd descent, and CSV files are read cell
by cell with the csv module and ``float`` instead of NumPy's parser.
Agreement between the two routes is the evidence the tests rely on.

The scalar incomplete beta function is kept as the package had it
before the continued fraction was batched, so the batched p-values can
be compared with it bit for bit.  Likewise the markdown and CSV
renderers are kept as they were before the keyed 3-decimal cell pass,
formatting every cell with its own f-string, so the rendered texts can
be compared with them byte for byte, and the k-means restarts are kept
as the loop they were before they ran in lockstep, one Lloyd descent
per start with one ``oracle_centroid`` call per cluster per step, so
labels, objectives and iteration counts can be compared bit for bit.
The CSV loader is kept as it was when NumPy read the values through
the open text handle, the column summaries as they were taken from one
transposed copy of the whole matrix, before they read it in blocks,
and standardization and the correlation matrix as the expressions they
were before they worked in place, so the loaded values, the summaries
and the matrices can be compared bit for bit.  The
pipeline's correlation is kept as it was taken before it read the
loaded data directly, from the standardized copy, and the partition
count as the whole Stirling table ``varcluster`` built before it
stopped at its budget.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable, Iterator
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from pcageom.corrstats import _ln_gamma_ratio, correlation_matrix
from pcageom.errors import DataError
from pcageom.ingest import (
    ColumnSummary,
    DataMatrix,
    StandardizedMatrix,
    _fault,
    _names,
    _select,
    ddof_for,
    standardize,
    summarize,
)
from pcageom.pcacore import CRITERIA
from pcageom.varcluster import MAX_ITER, RESTARTS, pairwise_distance


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


def reference_betacf_steps(a, b, x):
    """The scalar modified Lentz fraction and the steps it took: 301
    when none of its 300 steps met the tolerance."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            return h, m
    return h, 301


def _reference_betacf(a, b, x):
    return reference_betacf_steps(a, b, x)[0]


def reference_betainc_reg(a: float, b: float, x: float) -> float:
    """``corrstats.betainc_reg`` as it was before it took arrays: one
    scalar modified Lentz continued fraction per value.  The prefactor's
    log-gamma difference is the package's own ``_ln_gamma_ratio``, which
    ``test_ln_gamma_ratio_series_is_exact_to_rounding`` pins to mpmath:
    this reference pins the fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        _ln_gamma_ratio(a, b)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _reference_betacf(a, b, x) / a
    return 1.0 - front * _reference_betacf(b, a, 1.0 - x) / b


def reference_significance(r: float, n_obs: int) -> float:
    """Two-tailed p-value of a checked coefficient through the scalar fraction."""
    r = min(1.0, max(-1.0, r))
    return reference_betainc_reg((n_obs - 2) / 2.0, 0.5, max(0.0, 1.0 - r * r))


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


def correlation_with_spectrum(rng: np.random.Generator, eigenvalues) -> np.ndarray:
    """Correlation matrix with a prescribed spectrum (Davies & Higham,
    BIT 40(4), 2000).

    ``eigenvalues`` are scaled to sum to n, placed in a random orthogonal
    basis, and Givens rotations in (i, j) planes with a_ii < 1 < a_jj
    set one diagonal entry to 1 at a time; the rotations keep the
    spectrum.  An entry within ``tol`` of 1 counts as done on both
    sides, so one that rounding left just off 1 is not picked again.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    n = lam.size
    lam = lam * (n / lam.sum())
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    a = (q * lam) @ q.T
    a = 0.5 * (a + a.T)
    tol = 1e-13
    while True:
        d = np.diag(a)
        low = np.nonzero(d < 1.0 - tol)[0]
        high = np.nonzero(d > 1.0 + tol)[0]
        if not low.size or not high.size:
            break
        i, j = int(low[0]), int(high[0])
        aii, ajj, aij = a[i, i] - 1.0, a[j, j] - 1.0, a[i, j]
        # the smaller root of ajj t^2 - 2 aij t + aii = 0, free of cancellation
        t = aii / (aij + math.copysign(math.sqrt(aij * aij - aii * ajj), aij))
        c = 1.0 / math.sqrt(1.0 + t * t)
        s = c * t
        g = np.array([[c, s], [-s, c]])
        a[:, [i, j]] = a[:, [i, j]] @ g
        a[[i, j], :] = g.T @ a[[i, j], :]
        a[i, i] = 1.0
    if np.abs(np.diag(a) - 1.0).max() > tol:
        raise ArithmeticError("correlation_with_spectrum: diagonal not reduced to 1")
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 1.0)
    return a


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


def stirling2(m: int, k: int) -> int:
    """S(m, k), the number of partitions of m items into exactly k
    non-empty blocks, from the whole table as ``varcluster`` built it
    before it stopped at ``EXACT_BUDGET``."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(m):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def oracle_centroid(points: np.ndarray, metric: str) -> np.ndarray:
    if metric == "l1":
        return np.median(points, axis=0)
    if metric == "cosine":
        unit = points / np.linalg.norm(points, axis=1, keepdims=True)
        direction = unit.sum(axis=0)
        norm = np.linalg.norm(direction)
        return direction / norm if norm > 0.0 else points[0].copy()
    return points.mean(axis=0)


def _restart_fix_empty(points, centroids, labels, metric) -> bool:
    counts = np.bincount(labels, minlength=centroids.shape[0])
    if counts.all():
        return False
    own = pairwise_distance(points, centroids, metric)[np.arange(labels.shape[0]), labels]
    moved = False
    for cid in np.flatnonzero(counts == 0):
        spare = counts[labels] > 1
        if not spare.any():
            break
        i = int(np.argmax(np.where(spare, own, -1.0)))
        counts[labels[i]] -= 1
        counts[cid] = 1
        labels[i] = cid
        centroids[cid] = points[i]
        moved = True
    return moved


def _restart_assign(points, centroids, metric):
    dist = pairwise_distance(points, centroids, metric)
    labels = dist.argmin(axis=1)  # ties go to the lowest centroid index
    moved = _restart_fix_empty(points, centroids, labels, metric)
    if moved:  # every distance again, to the refilled centroids too
        dist = pairwise_distance(points, centroids, metric)
    own = dist[np.arange(labels.shape[0]), labels]
    # added in point order, as a scalar loop would
    return labels, float(np.add.accumulate(own)[-1]), moved


def restart_lloyd(points: np.ndarray, centroids: np.ndarray, metric: str) -> SimpleNamespace:
    """``varcluster.lloyd`` from one start, as it was before the restarts
    ran in lockstep; ``refills`` counts the assignments that refilled an
    empty cluster."""
    points = np.asarray(points, dtype=np.float64)
    centroids = np.array(centroids, dtype=np.float64)
    labels, objective, refills = _restart_assign(points, centroids, metric)
    history = [objective]
    converged = guard_tripped = False
    for _ in range(MAX_ITER):
        new_centroids = centroids.copy()
        for cid in range(centroids.shape[0]):
            members = points[labels == cid]
            if members.shape[0]:
                new_centroids[cid] = oracle_centroid(members, metric)
        new_labels, new_objective, moved = _restart_assign(points, new_centroids, metric)
        refills += moved
        if new_objective > objective + 1e-12:
            guard_tripped = True
            break
        fixpoint = np.array_equal(new_labels, labels)
        labels, centroids, objective = new_labels, new_centroids, new_objective
        history.append(objective)
        if fixpoint:
            converged = True
            break
    return SimpleNamespace(labels=labels, centroids=centroids, objective=objective,
                           history=history, converged=converged,
                           guard_tripped=guard_tripped, refills=refills)


def restart_starts(pair_dist: np.ndarray, kc: int, seed: int) -> list[int]:
    """Farthest-point start indices of one restart, drawn as the loop drew them."""
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(pair_dist.shape[0]))]
    nearest = pair_dist[:, chosen[0]].copy()
    nearest[chosen[0]] = -1.0
    while len(chosen) < kc:
        chosen.append(int(np.argmax(nearest)))
        np.minimum(nearest, pair_dist[:, chosen[-1]], out=nearest)
        nearest[chosen[-1]] = -1.0
    return chosen


def restart_kmeans(points: np.ndarray, kc: int, metric: str, seed: int = 0):
    """The heuristic path of ``cluster_kmeans`` as a loop over the restarts:
    ``(best, runs)``, the earliest restart of lowest objective and every
    restart's descent."""
    pair_dist = pairwise_distance(points, points, metric)
    runs = [restart_lloyd(points, points[restart_starts(pair_dist, kc, seed + attempt)], metric)
            for attempt in range(RESTARTS)]
    best = runs[0]
    for run in runs[1:]:
        if run.objective < best.objective:
            best = run
    return best, runs


def oracle_distance(x, c, metric: str) -> float:
    """One pair of vectors, one coordinate at a time in index order, in
    Python floats: every product and sum rounded on its own, with no
    fused multiply-add or pairwise summation."""
    x, c = np.asarray(x, dtype=np.float64).tolist(), np.asarray(c, dtype=np.float64).tolist()
    if metric != "cosine":
        acc = 0.0
        for xi, ci in zip(x, c):
            d = xi - ci
            if metric == "l1":
                acc += abs(d)
            elif metric == "l2":
                acc += d * d
            elif abs(d) > acc:
                acc = abs(d)
        return acc
    dot = nx = nc = 0.0
    for xi, ci in zip(x, c):
        dot += xi * ci
        nx += xi * xi
        nc += ci * ci
    denom = math.sqrt(nx) * math.sqrt(nc)
    if denom == 0.0:
        return 1.0
    return max(1.0 - dot / denom, 0.0)


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
    if label_column is not None:
        label_idx = _reference_column(label_column, names, n_cols)

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

    return DataMatrix(values=values, column_names=sel_names)


def _handle_read(
    path: Path, columns: list[int | str] | None, label_column: int | str | None, header: bool
) -> DataMatrix | None:
    """``ingest._read`` as it was when ``np.loadtxt`` read the open handle."""
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
        if header and not any(line.strip("\r\n") for line in fh):
            return None
        converters = dict.fromkeys(set(range(n_cols)) - set(selected), lambda _cell: 0.0)
        fh.seek(0)
        values = np.loadtxt(
            fh, delimiter=",", comments=None, quotechar='"', ndmin=2, skiprows=skiprows,
            converters=converters, encoding=None,
        )
    if len(values) < 3 or values.shape[1] != n_cols:
        return None
    if selected != list(range(n_cols)):
        values = values.take(selected, axis=1)
    if not np.isfinite(values).all():
        return None
    return DataMatrix(values=values, column_names=[names[i] for i in selected])


def handle_load_csv(
    path: str | Path,
    columns: list[int | str] | None = None,
    label_column: int | str | None = None,
    header: bool = False,
) -> DataMatrix:
    """``ingest.load_csv`` as it was when NumPy iterated the open text
    handle line by line; errors are named by the package's ``_fault``."""
    path = Path(path)
    try:
        data = _handle_read(path, columns, label_column, header)
    except (DataError, OSError, ValueError, csv.Error):
        data = None
    if data is None:
        raise _fault(path, columns, label_column, header)
    return data


def one_copy_summarize(data: DataMatrix, divisor: str = "population") -> list[ColumnSummary]:
    """``ingest.summarize`` as it was before it read the columns in
    blocks: one transposed copy of the whole matrix."""
    columns = np.array(data.values.T, dtype=np.float64, order="C")
    means = columns.mean(axis=1)
    columns -= means[:, None]
    variances = np.square(columns, out=columns).sum(axis=1) / (data.n_rows - ddof_for(divisor))
    return [
        ColumnSummary(name=name, mean=mean, std=std, variance=var)
        for name, mean, std, var in zip(
            data.column_names, means.tolist(), np.sqrt(variances).tolist(), variances.tolist()
        )
    ]


def expression_standardize(data: DataMatrix, divisor: str = "population") -> np.ndarray:
    """``ingest.standardize``'s values as the one expression it was before
    it divided in place; raises its zero-variance error, for a column of
    equal values or of zero variance, the same way."""
    summaries = summarize(data, divisor)
    for j, s in enumerate(summaries):
        if s.std == 0.0 or (data.values[:, j] == data.values[0, j]).all():
            raise DataError(f"ingest: column {s.name!r} has zero variance")
    return (data.values - [s.mean for s in summaries]) / [s.std for s in summaries]


def standardized_correlation(data: DataMatrix, divisor: str = "population") -> np.ndarray:
    """The correlation matrix as the pipeline took it before it correlated
    the loaded data: from the standardized copy of the data."""
    return correlation_matrix(standardize(data, divisor)).r


def expression_correlation(z: StandardizedMatrix) -> np.ndarray:
    """``corrstats.correlation_matrix``'s ``r`` as it was computed before the
    norms were taken from the centered columns squared in place."""
    zc = z.values - z.values.mean(axis=0)
    norms = np.sqrt(np.sum(zc * zc, axis=0))
    if np.any(norms == 0.0):
        j = int(np.argmin(norms))
        raise DataError(f"corrstats: column {z.column_names[j]!r} has zero variance")
    r = np.triu(np.clip(zc.T @ zc / np.outer(norms, norms), -1.0, 1.0), 1)
    r += r.T
    np.fill_diagonal(r, 1.0)
    return r


def _matrix(labels: Iterable[str], matrix: Iterable, scale: float = 1.0) -> Iterator[list[str]]:
    """Rows of a labelled matrix at 3 decimals, formatted as they are read."""
    return ([label] + [f"{v * scale:.3f}" for v in row] for label, row in zip(labels, matrix))


def _records(records: list[dict], label: str, keys: tuple[str, ...]) -> list[list[str]]:
    """One row per record: its ``label`` field, then ``keys`` at 3 decimals."""
    return [[r[label]] + [f"{r[key]:.3f}" for key in keys] for r in records]


_STATS = ("mean", "std", "variance")


def _reference_sections(report: dict) -> list[tuple]:
    """The report's tables in print order, shared by both text renderers.

    Each section is ``(markdown title line, CSV title or None, headers,
    rows)``.  A header or cell that the two formats spell differently is
    a ``(markdown, csv)`` pair, and ``None`` on one side leaves that cell
    out of that format.  A CSV title of ``None`` keeps the table out of
    the CSV; headers of ``None`` make the rows markdown text lines.
    Matrix rows are generators that format each row as it is read: the
    CSV never formats the markdown-only eigenvectors, and the sections
    of one call can be rendered once.
    """
    names = report["correlation"]["names"]
    sections = []
    if report["column_summaries"]:
        sections.append((
            "## Column summaries", "column summaries", ["column", *_STATS],
            _records(report["column_summaries"], "name", _STATS),
        ))
    for md_title, csv_title, matrix, scale in (
        ("## Correlation matrix", "correlation", report["correlation"]["r"], 1.0),
        ("## Significance levels (two-tailed p-values)", "significance",
         report["significance"], 1.0),
        ("## Angles between variables (degrees)", "angles_deg", report["angles_deg"], 1.0),
        ("## Determination coefficients (percent)", "determination_percent",
         report["determination"], 100.0),
    ):
        sections.append((md_title, csv_title, [""] + names, _matrix(names, matrix, scale)))

    eig = report["eigen"]
    pcs = [f"pc{i + 1}" for i in range(len(eig["eigenvalues"]))]
    sections.append((
        "## Eigensystem", None, ["component", "eigenvalue"],
        [[pc, f"{v:.3f}"] for pc, v in zip(pcs, eig["eigenvalues"])],
    ))
    sections.append(("Eigenvectors in columns:", None, [""] + pcs, _matrix(names, eig["U"])))
    sections.append((
        "## Variance explained", "variance explained",
        ["component", "eigenvalue", "cumulative", "percent",
         ("cumulative percent", "cumulative_percent")],
        _records(report["variance_explained"], "component",
                 ("eigenvalue", "cumulative_eigenvalue", "percent", "cumulative_percent")),
    ))

    full = report["loadings_full"]
    sections.append((
        "## Loadings (components vs variables)", "loadings", [""] + full["variables"],
        _matrix(full["pc_labels"], full["loading"]),
    ))
    det_rows = [
        [label] + [f"{v:.3f}" for v in row] + [f"{total:.3f}"]
        for label, row, total in zip(full["pc_labels"], full["determination"], full["row_sums"])
    ]
    det_rows.append(
        [("column sum", "column_sum")] + [f"{v:.3f}" for v in full["column_sums"]] + [""]
    )
    sections.append((
        "## Determination (components vs variables)", "determination_components",
        [""] + full["variables"] + [("row sum", "row_sum")], det_rows,
    ))

    rec = report["reconstruction_at_k"]
    rec_rows = [
        [label] + [f"{v:.3f}" for v in row] + [f"{avg * 100.0:.3f}"]
        for label, row, avg in zip(rec["pc_labels"], rec["determination"], rec["row_averages"])
    ]
    rec_rows.append(
        [("reconstruction %", "reconstruction_percent")]
        + [f"{v * 100.0:.3f}" for v in rec["column_sums"]]
        + [""]
    )
    sections.append((
        f"## Reconstruction with the first {rec['k']} component(s)", f"reconstruction_k{rec['k']}",
        [""] + rec["variables"] + [("row average %", "row_average_percent")], rec_rows,
    ))

    sel = report["selection"]
    sel_rows = []
    for crit in CRITERIA:
        detail = sel[crit]["detail"]
        notes = [f"threshold {detail['threshold']}"] if "threshold" in detail else []
        if detail.get("no_elbow"):
            notes.append("no elbow")
        sel_rows.append([crit, str(sel[crit]["k"]), ("; ".join(notes), None)])
    chosen = sel["chosen_criterion"]
    sel_rows.append([(f"chosen: {chosen}", f"chosen:{chosen}"), str(sel["k"]), ("", None)])
    sections.append((
        "## Component-count selection", "selection", ["criterion", "k", ("notes", None)], sel_rows
    ))

    prof = report["similarity_profiles"]
    sections.append((
        "## Similarity profiles", "similarity_profiles", ["variable"] + prof["components"],
        _matrix(prof["profiles"].keys(), prof["profiles"].values()),
    ))
    sections.append((
        "## Clusters", "clusters", ["cluster", "members"],
        [
            [cid, (", ".join(members) if members else "(empty)", ";".join(members))]
            for cid, members in report["clusters"]["clusters"].items()
        ],
    ))

    scores = report["scores"]
    if scores["available"]:
        sections.append((
            "## Scores", "scores",
            ["component", "mean", "std", ("variance (sample divisor)", "variance_sample")],
            _records(scores["summaries"], "component", _STATS),
        ))
    else:
        sections.append(("## Scores", None, None, [scores["reason"]]))
    sections.append((
        "## Representation identities", "relations",
        ["relation", ("max abs deviation", "max_abs_dev"), ("status", "pass")],
        [
            [c["relation"], f"{c['max_abs_dev']:.3e}", "pass" if c["pass"] else "FAIL"]
            for c in report["relations"]
        ],
    ))
    return sections


def _side(cells: list, side: int) -> list[str]:
    """One format's cells of a row: pairs resolved to ``side``, ``None`` dropped."""
    if tuple not in map(type, cells):  # most rows are plain strings
        return cells
    return [
        c if c.__class__ is str else c[side]
        for c in cells
        if c.__class__ is str or c[side] is not None
    ]


def reference_render_markdown(report: dict) -> str:
    """``report.render_markdown`` as it was before the keyed cell pass: one
    f-string per cell."""
    prov = report["provenance"]
    lines = [
        "# Correlation-geometry PCA report",
        "",
        f"- input: `{prov['input']}` ({prov['input_kind']})",
        f"- divisor: {prov['divisor']}; seed: {prov['seed']}",
        f"- criterion: {prov['criterion']}"
        + (f" (threshold {prov['threshold']})" if prov["threshold"] is not None else "")
        + f"; components kept: {prov['k']}",
        f"- clustering: {prov['cluster_method']}"
        + (f" ({prov['metric']})" if prov["metric"] else ""),
        "",
    ]
    # every text cell that is not a fixed label holds a variable name, so
    # only a name can put a "|" in a cell; the tables then write it "\|"
    escape = any("|" in name for name in report["correlation"]["names"])
    for title, _, headers, rows in _reference_sections(report):
        lines += [title, ""]
        if headers is None:
            lines += rows
        else:
            headers = _side(headers, 0)
            if escape:
                headers = _escape_pipes(headers)
                rows = [_escape_pipes(_side(row, 0)) for row in rows]
            lines.append("| " + " | ".join(headers) + " |")
            lines.append("| " + " | ".join(["---"] * len(headers)) + " |")
            lines += ["| " + " | ".join(_side(row, 0)) + " |" for row in rows]
        lines.append("")
    return "\n".join(lines)


def _escape_pipes(cells: list[str]) -> list[str]:
    return [c.replace("|", "\\|") for c in cells]


def reference_render_csv(report: dict) -> str:
    """``report.render_csv`` as it was before the keyed cell pass."""
    buf = io.StringIO()
    # a "\r" in the terminator makes the writer quote cells holding one;
    # each row still ends in "\n"
    rows_out = SimpleNamespace(write=lambda line: buf.write(line[:-2] + "\n"))
    writer = csv.writer(rows_out, lineterminator="\r\n")
    for _, title, headers, rows in _reference_sections(report):
        if title is None:
            continue
        buf.write(f"# {title}\n")
        writer.writerow(_side(headers, 1))
        writer.writerows(_side(row, 1) for row in rows)
        buf.write("\n")
    return buf.getvalue()[:-1]
