"""Vertical clustering: grouping variables by similarity to components.

Each variable's similarity profile is its column of the first k rows
of the explanation table: its determination coefficients against the k
selected components.  ``similarity_profiles`` returns the profiles as
the rows of one ``(m, k)`` matrix, and both grouping rules take that
matrix with one variable name per row.  The naive rule assigns a
variable to the component that explains at least a threshold share of
its variance (default half, so at most one component can qualify);
leftovers land in an explicit "unassigned" cluster.  The k-means rule
clusters the rows as points under a pluggable metric, and is
deterministic.

K-means details: centroids minimize the within-cluster cost exactly
for the city-block (coordinatewise median), squared Euclidean (mean),
and cosine (normalized mean direction) metrics, so for those three the
best clustering is the cheapest partition of the variables.  When the
number of partitions into k non-empty blocks, the Stirling number
S(m, k) of the m clustered variables, is at most ``EXACT_BUDGET``
(1000), every partition is scored in one batch and the cheapest is
returned: the result is provably optimal and marked ``exact``.  The
budget keeps that batch to a few milliseconds; it covers every k for up
to 7 variables, k = 2 up to 10 variables, and k = m - 1 up to 45.

Above the budget, and always for the Chebyshev metric, the result is
heuristic: ``RESTARTS`` (10) runs of farthest-point initialization
from a seed-chosen start and at most ``MAX_ITER`` (100) Lloyd
iterations to an assignment fixpoint, best objective kept (earliest
restart wins ties).  Restart r starts from the point that NumPy's
``default_rng(seed + r).integers(m)`` picks among the m points.  That
draw is computed in-package (``_draw_index``), so report bytes do not
depend on NumPy's Generator stream and ``numpy.random`` is never
imported.  The sum of Chebyshev distances has no closed-form
minimizer, so that metric reuses the mean and the iteration simply
stops if the objective would rise, keeping the descent property.  The
restarts run in lockstep: ``lloyd`` takes every start at once and steps
all restarts still descending together, and each restart leaves that
set at its own fixpoint, guard trip or iteration cap, so it returns
what a loop over the starts would.

Distances are array code: ``pairwise_distance`` gives each Lloyd step
one matrix from every point to the centroids of every live restart,
from which each restart's labels and cost are read, and one
point-to-point matrix serves the initialization of every restart.  It
adds coordinates in the order a loop over one pair of vectors would,
so results are bitwise those of such a loop.  The centroids of one
step come from one pass over all (restart, cluster) groups; groups of
equal size are reduced together, so each centroid is bitwise what
``np.median``, ``mean`` or the normalized sum gives for its group
alone.  The exact path takes its centroids from the same pass.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .pcacore import ExplanationTable, component_labels

__all__ = [
    "EXACT_BUDGET",
    "MAX_ITER",
    "METRICS",
    "RESTARTS",
    "UNASSIGNED",
    "ClusterAssignment",
    "LloydResult",
    "similarity_profiles",
    "cluster_naive",
    "cluster_kmeans",
    "cluster_order",
    "lloyd",
    "pairwise_distance",
]

# city block, squared Euclidean, Chebyshev, cosine distance
METRICS = ("l1", "l2", "linf", "cosine")

UNASSIGNED = "unassigned"

_GUARD_TOL = 1e-12

# most partitions cluster_kmeans scores exhaustively; see the module docstring
EXACT_BUDGET = 1000

# heuristic path: Lloyd descents per clustering, iterations per descent
RESTARTS = 10
MAX_ITER = 100

# restart starts: SeedSequence and PCG64 arithmetic on Python ints
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(eq=False)
class ClusterAssignment:
    """The clusters of variables one clustering method produced; the other
    fields are ``cluster_kmeans`` results, left at their defaults by ``cluster_naive``."""

    clusters: dict[str, list[str]]
    objective: float | None = None
    n_iterations: int | None = None
    exact: bool = False


@dataclass(eq=False)
class LloydResult:
    """State of one k-means run, with the per-iteration objective trail."""

    labels: np.ndarray
    centroids: np.ndarray
    objective: float
    history: list[float]
    converged: bool
    guard_tripped: bool


def similarity_profiles(table: ExplanationTable, k: int) -> np.ndarray:
    """Per-variable profiles over the first k components, as the rows of
    one C-contiguous ``(m, k)`` float64 matrix: the transpose of the
    table's first k determination rows, in ``table.variable_names`` order."""
    n = table.determination.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"varcluster: k must be in 1..{n}, got {k}")
    return np.ascontiguousarray(table.determination[:k].T)


def _profile_matrix(profiles: np.ndarray, names: list[str]) -> np.ndarray:
    """The profiles as a float64 matrix, one row per name; raises
    ``ValueError`` when it is not 2-D, has no rows, or the names do not
    match its rows."""
    matrix = np.asarray(profiles, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"varcluster: profiles must be an (m, k) matrix, got shape {matrix.shape}")
    if not matrix.shape[0]:
        raise ValueError("varcluster: no profiles to cluster")
    if len(names) != matrix.shape[0]:
        raise ValueError(f"varcluster: {len(names)} names for {matrix.shape[0]} profiles")
    return matrix


def cluster_naive(profiles: np.ndarray, names: list[str], threshold: float = 0.5) -> ClusterAssignment:
    """Assign each variable to the component clearing the threshold.

    Among profile entries >= threshold the largest wins, lowest
    component index on ties; with the default threshold of one half at
    most one entry can qualify, since a profile sums to at most 1.
    Variables clearing nothing go to the "unassigned" cluster.
    ``names`` names the rows of ``profiles``.
    """
    values = _profile_matrix(profiles, names)
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"varcluster: threshold must be in (0, 1], got {threshold}")
    clears = values >= threshold
    # argmax returns the first of equal maxima: the lowest component index
    best = np.where(clears, values, -np.inf).argmax(axis=1)
    labels = component_labels(values.shape[1])
    clusters: dict[str, list[str]] = {label: [] for label in labels}
    clusters[UNASSIGNED] = []
    for name, cleared, i in zip(names, clears.any(axis=1), best):
        clusters[labels[i] if cleared else UNASSIGNED].append(name)
    return ClusterAssignment(clusters=clusters)


def cluster_order(ids: Iterable[str]) -> list[str]:
    """Cluster ids in print order: pc1, pc2, ... (or c1, c2, ...) by
    number, then "unassigned".  ``report.json`` sorts them as text."""
    return sorted(ids, key=lambda cid: (cid == UNASSIGNED, len(cid), cid))


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"varcluster: unknown metric {metric!r}, expected one of {sorted(METRICS)}")


def pairwise_distance(points: np.ndarray, centers: np.ndarray, metric: str) -> np.ndarray:
    """Distance from every point to every center, as an (m, kc) matrix.

    Under the named metric: l1 sums absolute coordinate differences, l2
    sums squared ones (the squared Euclidean distance), linf keeps the
    largest, and cosine is 1 - dot / (|x| |c|) clamped at 0, or 1 when
    either vector is zero.  Coordinates are accumulated one axis at a
    time in index order, so each entry is bitwise what a scalar loop
    over that pair of vectors returns.
    """
    _check_metric(metric)
    out = np.zeros((points.shape[0], centers.shape[0]))
    if metric == "cosine":
        nx = np.zeros((points.shape[0], 1))
        nc = np.zeros((1, centers.shape[0]))
    for j in range(points.shape[1]):
        x = points[:, j, None]
        c = centers[None, :, j]
        if metric == "cosine":
            out += x * c
            nx += x * x
            nc += c * c
            continue
        diff = x - c
        if metric == "l2":
            out += diff * diff
        elif metric == "l1":
            out += np.abs(diff)
        else:
            np.maximum(out, np.abs(diff), out=out)
    if metric != "cosine":
        return out
    denom = np.sqrt(nx) * np.sqrt(nc)
    zero = denom == 0.0
    np.divide(out, denom, out=out, where=~zero)
    out = np.maximum(1.0 - out, 0.0)
    out[zero] = 1.0
    return out


def _point_order_sum(own: np.ndarray) -> np.ndarray:
    """Each row of ``own`` summed in point order, as a scalar loop adds;
    ``np.sum`` would pair the terms up and round differently."""
    return np.add.accumulate(own, axis=-1)[..., -1] if own.shape[-1] else np.zeros(own.shape[:-1])


def _fix_empty(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray,
               own: np.ndarray, counts: np.ndarray, metric: str) -> None:
    """Refill one restart's empty clusters in place.

    ``own`` holds every point's distance to its own centroid and
    ``counts`` the cluster sizes.  Each empty cluster, lowest id first,
    takes the point farthest from its own centroid among clusters that
    can spare one, and that point becomes its centroid; its ``own``
    entry becomes its distance to itself, which is not 0 under cosine.
    """
    # a moved point is alone in its new cluster and never moves again,
    # so the other points' distances to their centroids stay valid
    for cid in np.flatnonzero(counts == 0):
        spare = counts[labels] > 1
        if not spare.any():
            break
        i = int(np.argmax(np.where(spare, own, -1.0)))
        counts[labels[i]] -= 1
        counts[cid] = 1
        labels[i] = cid
        centroids[cid] = points[i]
        own[i] = pairwise_distance(points[i, None], points[i, None], metric)[0, 0]


def _assign_all(points: np.ndarray, centroids: np.ndarray, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Every restart's nearest-centroid labels, empty clusters refilled, and costs.

    ``centroids`` is ``(restarts, kc, dim)`` and is updated in place by
    refills; returns labels ``(restarts, m)`` and costs ``(restarts,)``.
    """
    rows, kc, dim = centroids.shape
    m = points.shape[0]
    dist = pairwise_distance(points, centroids.reshape(-1, dim), metric).reshape(m, rows, kc)
    labels = dist.argmin(axis=2).T.copy()  # ties go to the lowest centroid index
    own = dist[np.arange(m), np.arange(rows)[:, None], labels]
    counts = np.bincount((labels + kc * np.arange(rows)[:, None]).ravel(), minlength=rows * kc)
    counts = counts.reshape(rows, kc)
    for r in np.flatnonzero((counts == 0).any(axis=1)):
        _fix_empty(points, centroids[r], labels[r], own[r], counts[r], metric)
    return labels, _point_order_sum(own)


def _centroids(points: np.ndarray, labels: np.ndarray, centroids: np.ndarray, metric: str) -> np.ndarray:
    """Centroid of every (row, cluster) group of ``labels``, in one pass.

    ``labels`` is ``(rows, m)`` and ``centroids`` ``(rows, kc, dim)``;
    returns a copy of ``centroids`` in which every group with members
    holds its centroid: the coordinatewise median (l1), the normalized
    sum of unit vectors (cosine; the group's first member when that sum
    is zero) or the mean (l2, linf).  Members are ordered by group size,
    then group, then point, so the groups of each size form one
    ``(groups, size, dim)`` block.  Reducing a block along its middle
    axis adds each group's members in the order ``np.median``, ``mean``
    and ``np.sum`` add one group's, so every centroid is bitwise theirs.
    """
    rows, m = labels.shape
    kc, dim = centroids.shape[1:]
    group = (labels + kc * np.arange(rows)[:, None]).ravel()
    counts = np.bincount(group, minlength=rows * kc)
    order = np.argsort(counts[group] * (rows * kc) + group, kind="stable")
    members = points[order % m]
    if metric == "cosine":
        members = members / np.linalg.norm(members, axis=1, keepdims=True)
    out = centroids.reshape(rows * kc, dim).copy()
    groups_of_size = np.bincount(counts)
    groups_of_size[0] = 0  # empty groups keep their centroid
    stop = 0
    for size in np.flatnonzero(groups_of_size).tolist():
        start, stop = stop, stop + size * int(groups_of_size[size])
        block = members[start:stop].reshape(-1, size, dim)
        first = order[start:stop:size]  # each group's first member
        ids = group[first]
        if metric == "l1":
            block = np.sort(block, axis=1)
            # np.median: the mean of the middle one or two sorted values
            middle = 0.0 + block[:, (size - 1) // 2]
            out[ids] = middle if size % 2 else (middle + block[:, size // 2]) / 2.0
        elif metric == "cosine":
            direction = np.add.reduce(block, axis=1)
            # per group ``norm(direction)``, which is sqrt(direction @ direction)
            total = np.sqrt(direction[:, None, :] @ direction[:, :, None])[:, :, 0]
            zero = total[:, 0] == 0.0
            np.divide(direction, total, out=direction, where=~zero[:, None])
            direction[zero] = points[first[zero] % m]
            out[ids] = direction
        else:
            out[ids] = np.add.reduce(block, axis=1) / size
    return out.reshape(rows, kc, dim)


def lloyd(points: np.ndarray, starts: np.ndarray, metric: str = "l2") -> list[LloydResult]:
    """Run Lloyd iterations from every stack of starting centroids.

    ``starts`` is ``(restarts, kc, dim)``; returns one result per start,
    each what a descent from that start alone would give.  A descent
    stops at an assignment fixpoint, after ``MAX_ITER`` iterations, or
    as soon as an update would increase its objective (possible only
    for the Chebyshev metric, whose centroid rule is heuristic).  Its
    history is the objective after each accepted iteration and is
    nonincreasing by construction.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.array(starts, dtype=np.float64)
    if centroids.ndim != 3:
        raise ValueError(f"varcluster: starts must be (restarts, kc, dim), got shape {centroids.shape}")
    labels, objective = _assign_all(points, centroids, metric)
    history = [[cost] for cost in objective.tolist()]
    converged = np.zeros(centroids.shape[0], dtype=bool)
    guard_tripped = np.zeros(centroids.shape[0], dtype=bool)
    live = np.arange(centroids.shape[0])

    for _ in range(MAX_ITER):
        if not live.size:
            break
        new_centroids = _centroids(points, labels[live], centroids[live], metric)
        new_labels, new_objective = _assign_all(points, new_centroids, metric)
        rose = new_objective > objective[live] + _GUARD_TOL
        guard_tripped[live[rose]] = True
        fixpoint = (new_labels == labels[live]).all(axis=1)
        accept = live[~rose]
        labels[accept] = new_labels[~rose]
        centroids[accept] = new_centroids[~rose]
        objective[accept] = new_objective[~rose]
        for r, cost in zip(accept.tolist(), new_objective[~rose].tolist()):
            history[r].append(cost)
        converged[live[~rose & fixpoint]] = True
        live = live[~rose & ~fixpoint]
    return [
        LloydResult(
            labels=labels[r],
            centroids=centroids[r],
            objective=history[r][-1],
            history=history[r],
            converged=bool(converged[r]),
            guard_tripped=bool(guard_tripped[r]),
        )
        for r in range(centroids.shape[0])
    ]


def _draw_index(seed: int, m: int) -> int:
    """NumPy's ``default_rng(seed).integers(m)``, computed in-package.

    Domain: ``seed >= 0`` and ``1 <= m < 2**32``.  ``default_rng`` seeds
    PCG64 through a SeedSequence, which hashes the seed's little-endian
    32-bit words into a pool of four words and hashes the pool out into
    the generator's 128-bit state and increment.  ``integers`` takes the
    32-bit halves of PCG64's XSL-RR outputs, low half first, and maps
    them into ``range(m)`` with Lemire's multiply-and-reject draw.
    """

    def hasher(const: int, mult: int):
        def hashmix(value: int) -> int:
            nonlocal const
            value ^= const
            const = const * mult & _MASK32
            value = value * const & _MASK32
            return value ^ value >> 16

        return hashmix

    def mix(x: int, y: int) -> int:
        x = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return x ^ x >> 16

    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:  # seeds of 2**128 and above
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = hasher(0x8B51F9DD, 0x58F38DED)
    state = [hashmix(pool[i % 4]) for i in range(8)]  # four uint64, as low, high halves
    s0, s1, s2, s3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128

    def next32(pcg: int):
        while True:
            pcg = (pcg * _PCG64_MULT + inc) & _MASK128
            rot = pcg >> 122
            out = (pcg >> 64 ^ pcg) & _MASK64
            out = (out >> rot | out << (64 - rot)) & _MASK64
            yield out & _MASK32
            yield out >> 32

    draws = next32(((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128)
    threshold = (1 << 32) % m  # rejecting low words below it makes every index equally likely
    product = next(draws) * m
    while product & _MASK32 < threshold:
        product = next(draws) * m
    return product >> 32


def _farthest_point_init(pair_dist: np.ndarray, kc: int, seeds: range) -> np.ndarray:
    """Indices of kc starting points per seed, ``(len(seeds), kc)``.

    From the point-to-point distances: restart r starts from the point
    ``default_rng(seeds[r]).integers(m)`` picks, computed in-package by
    ``_draw_index`` so that no NumPy Generator stream is involved; each
    next point is the one farthest from its nearest chosen point (lowest
    index on ties).
    """
    first = np.array([_draw_index(seed, pair_dist.shape[0]) for seed in seeds])
    chosen = [first]
    rows = np.arange(first.shape[0])
    nearest = pair_dist[:, first].T.copy()
    nearest[rows, first] = -1.0
    while len(chosen) < kc:
        chosen.append(np.argmax(nearest, axis=1))
        np.minimum(nearest, pair_dist[:, chosen[-1]].T, out=nearest)
        nearest[rows, chosen[-1]] = -1.0
    return np.stack(chosen, axis=1)


def _within_budget(m: int, k: int) -> bool:
    """Whether S(m, k), the number of partitions of m items into exactly
    k non-empty blocks, is at most ``EXACT_BUDGET``.

    Walks the Stirling table by excess, T(d, j) = S(j + d, j), which
    obeys T(d, j) = j T(d - 1, j) + T(d, j - 1) with T(0, j) = 1 and
    T(d, 0) = 0 for d >= 1.  Every term is non-negative, so T never
    falls as d or j grows, and S(m, k) = T(m - k, k) is at least every
    entry before it: the walk stops at the first entry past the budget,
    and every entry it keeps is exact and small.
    """
    row = [1] * (k + 1)  # T(0, j)
    for _ in range(m - k):
        entry = 0  # T(d, 0)
        for j in range(1, k + 1):
            entry = j * row[j] + entry
            if entry > EXACT_BUDGET:
                return False
            row[j] = entry
    return True


def _partitions(m: int, k: int) -> np.ndarray:
    """Every partition of range(m) into exactly k non-empty blocks.

    One row of block labels per partition, as restricted growth strings
    (block ids first appear in the order 0, 1, ...) in lexicographic
    order.  A prefix is kept only while enough items remain to open the
    blocks it has not used yet, so no level holds more than S(m, k) rows.
    """
    labels = np.zeros((1, 1), dtype=np.int64)
    used = np.ones(1, dtype=np.int64)
    choice = np.arange(k)
    for i in range(1, m):
        # item i joins a used block or opens the next one
        new_used = np.maximum(used[:, None], choice[None, :] + 1)
        ok = (choice[None, :] <= used[:, None]) & (k - new_used <= m - 1 - i)
        rows, cols = np.nonzero(ok)
        labels = np.concatenate([labels[rows], cols[:, None]], axis=1)
        used = new_used[rows, cols]
    return labels


def _partition_costs(points: np.ndarray, labels: np.ndarray, metric: str) -> np.ndarray:
    """Cost of every partition row, each block costed at its exact centroid.

    Closed forms of the block cost at the exact centroid: squared
    Euclidean, sum of squares minus squared sum over the count; cosine,
    count minus the length of the summed unit vectors; city block, upper
    half minus lower half of each coordinate's sorted member values.
    """
    total = np.zeros(labels.shape[0])
    sq = np.einsum("ij,ij->i", points, points)
    unit = points / np.linalg.norm(points, axis=1, keepdims=True) if metric == "cosine" else None
    for block in range(int(labels.max()) + 1):
        member = labels == block
        count = member.sum(axis=1)
        if metric == "l2":
            sums = member @ points
            total += member @ sq - np.einsum("ij,ij->i", sums, sums) / count
        elif metric == "cosine":
            total += count - np.linalg.norm(member @ unit, axis=1)
        else:
            values = np.where(member[:, :, None], points[None, :, :], np.inf)
            values.sort(axis=1)
            values[np.isinf(values)] = 0.0  # so ranks past the count add nothing
            rank = np.arange(labels.shape[1])[None, :]
            half = count[:, None] // 2
            sign = (rank >= count[:, None] - half) - (rank < half).astype(np.float64)
            total += np.einsum("pi,pij->p", sign, values)
    return total


def cluster_kmeans(
    profiles: np.ndarray,
    names: list[str],
    k_clusters: int,
    metric: str = "l2",
    seed: int = 0,
) -> ClusterAssignment:
    """Cluster the rows of a profile matrix with k-means, exactly when
    feasible; ``names`` names the rows.

    For the l1, l2 and cosine metrics, when the Stirling number
    S(m, k_clusters) of the m clustered variables is at most
    ``EXACT_BUDGET``, every partition is scored and the cheapest is
    returned with ``exact=True`` and ``n_iterations=None``; ties keep the
    lexicographically first labelling.  Otherwise, and always for linf,
    runs ``RESTARTS`` Lloyd descents of at most ``MAX_ITER`` iterations
    (seeds seed, seed+1, ...) and keeps the best objective; ties keep the
    earliest seed, so results are deterministic.  ``seed`` (non-negative)
    matters only on this heuristic path.  Either way ``objective`` is the
    sum of each variable's distance to its block's centroid.  The
    assignment holds these results only; the metric is the caller's.

    Cluster ids are canonical: clusters are
    renamed c1, c2, ... by their lowest member variable index.  Under
    the cosine metric a zero profile has no direction, so such
    variables are flagged and parked in the "unassigned" cluster.
    """
    matrix = _profile_matrix(profiles, names)

    excluded: list[str] = []
    active = np.arange(matrix.shape[0])
    _check_metric(metric)
    if seed < 0:
        raise ValueError(f"varcluster: seed must be non-negative, got {seed}")
    if metric == "cosine":
        norms = np.linalg.norm(matrix, axis=1)
        zero = norms == 0.0
        excluded = [names[i] for i in np.nonzero(zero)[0]]
        active = np.nonzero(~zero)[0]
    if not 1 <= k_clusters <= active.shape[0]:
        raise ValueError(
            f"varcluster: k_clusters must be in 1..{active.shape[0]}, got {k_clusters}"
        )

    points = matrix[active]
    exact = metric != "linf" and _within_budget(points.shape[0], k_clusters)
    if exact:
        candidates = _partitions(points.shape[0], k_clusters)
        labels = candidates[int(np.argmin(_partition_costs(points, candidates, metric)))]
        # every block has members, so no placeholder centroid survives
        placeholder = np.zeros((1, k_clusters, points.shape[1]))
        centroids = _centroids(points, labels[None], placeholder, metric)[0]
        own = pairwise_distance(points, centroids, metric)[np.arange(points.shape[0]), labels]
        objective = float(_point_order_sum(own))
        n_iterations = None
    else:
        # one point-to-point matrix serves every restart's initialization
        pair_dist = pairwise_distance(points, points, metric)
        starts = points[_farthest_point_init(pair_dist, k_clusters, range(seed, seed + RESTARTS))]
        # min keeps the first of equal objectives: the earliest restart
        best = min(lloyd(points, starts, metric), key=lambda result: result.objective)
        labels, objective, n_iterations = best.labels, best.objective, len(best.history) - 1

    # canonical ids: order clusters by their lowest member variable index
    ids, first = np.unique(labels, return_index=True)
    order = ids[np.argsort(first)].tolist()
    rename = {lbl: f"c{rank + 1}" for rank, lbl in enumerate(order)}
    clusters: dict[str, list[str]] = {rename[lbl]: [] for lbl in order}
    for pos, orig in enumerate(active):
        clusters[rename[int(labels[pos])]].append(names[orig])
    if excluded:
        clusters[UNASSIGNED] = excluded

    return ClusterAssignment(
        clusters=clusters, objective=objective, n_iterations=n_iterations, exact=exact
    )
