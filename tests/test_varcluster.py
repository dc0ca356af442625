"""Similarity profiles and both variable-clustering rules.

K-means results are checked against an exhaustive-partition oracle that
recomputes centroids and costs with its own formulas.  The enumeration
covers every metric whose centroid step minimizes the within-cluster
cost exactly (city-block, squared Euclidean, cosine); the Chebyshev
centroid is heuristic, so there the oracle only bounds the partition.
The distance matrix is checked bitwise against a scalar loop over each
pair of vectors.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pcageom.corrstats import CorrelationMatrix
from pcageom.eigensolve import eigen_symmetric
from pcageom.fixtures import fixture_path
from pcageom.ingest import MAX_COLUMNS
from pcageom.pcacore import explanation_table
from pcageom.report import run_analysis
from pcageom.tensorops import build_virtual
from pcageom.varcluster import (
    EXACT_BUDGET,
    MAX_ITER,
    METRICS,
    UNASSIGNED,
    cluster_kmeans,
    cluster_naive,
    lloyd,
    pairwise_distance,
    similarity_profiles,
)
from pcageom.varcluster import (
    _assign_all,
    _centroids,
    _distance,
    _draw_index,
    _partitions,
    _within_budget,
)

from conftest import REF_PARTITION, REF_PROFILES_K2_3DP
import oracles


def corr_of(r, n_obs=10):
    r = np.asarray(r, dtype=np.float64)
    names = [f"v{i + 1}" for i in range(r.shape[0])]
    return CorrelationMatrix(r=r, n_obs=n_obs, names=names)


def names_of(m):
    return [f"v{i + 1}" for i in range(m)]


def profiles_of(rng, n, k_rows):
    """A clustering instance as the pipeline would produce it: the
    profile matrix of variables v1..vn."""
    corr = corr_of(oracles.random_correlation(rng, n))
    eig = eigen_symmetric(corr)
    return similarity_profiles(explanation_table(build_virtual(eig), corr.names), k_rows)


def partition_of(assignment):
    return {frozenset(m) for cid, m in assignment.clusters.items() if cid != UNASSIGNED and m}


def assignments_of(assignment):
    """Each variable's cluster id, read off the clusters."""
    return {name: cid for cid, members in assignment.clusters.items() for name in members}


@pytest.fixture(scope="module")
def fixture_profiles(table_full):
    """The bundled k = 2 profile matrix and its variable names."""
    return similarity_profiles(table_full, 2), table_full.variable_names


# -- profiles -------------------------------------------------------------


def test_similarity_profiles_fixture(fixture_profiles):
    profiles, names = fixture_profiles
    assert names == list(REF_PROFILES_K2_3DP)
    assert profiles.shape == (4, 2) and profiles.dtype == np.float64
    assert profiles.flags.c_contiguous
    for values, name in zip(profiles, names):
        # the bundled matrix is quoted at 3 decimals, so determination
        # drifts slightly from values computed on unrounded correlations
        np.testing.assert_allclose(values, REF_PROFILES_K2_3DP[name], atol=0.001)
        assert values.sum() <= 1.0 + 1e-12


def test_similarity_profiles_are_the_first_k_rows(table_full):
    for k in range(1, 5):
        profiles = similarity_profiles(table_full, k)
        np.testing.assert_array_equal(profiles, table_full.determination[:k].T)


def test_similarity_profiles_k_range(table_full):
    with pytest.raises(ValueError, match="k must be"):
        similarity_profiles(table_full, 0)
    with pytest.raises(ValueError, match="k must be"):
        similarity_profiles(table_full, 5)


# -- naive rule -----------------------------------------------------------


def test_naive_fixture_partition(fixture_profiles):
    a = cluster_naive(*fixture_profiles)
    assert partition_of(a) == set(REF_PARTITION)
    assert a.clusters["pc1"] == ["Sepal Length", "Petal Length", "Petal Width"]
    assert a.clusters["pc2"] == ["Sepal Width"]
    assert a.clusters[UNASSIGNED] == []


def test_naive_higher_threshold_drops_variables(fixture_profiles):
    a = cluster_naive(*fixture_profiles, threshold=0.9)
    assert assignments_of(a)["Sepal Length"] == UNASSIGNED
    assert assignments_of(a)["Petal Length"] == "pc1"


def test_naive_tie_prefers_lowest_component():
    assert assignments_of(cluster_naive(np.array([[0.5, 0.5]]), ["x"]))["x"] == "pc1"


def test_naive_permutation_equivariance(fixture_profiles):
    profiles, names = fixture_profiles
    base = assignments_of(cluster_naive(profiles, names))
    rng = np.random.default_rng(5)
    for _ in range(10):
        perm = rng.permutation(len(names))
        shuffled = cluster_naive(profiles[perm], [names[i] for i in perm])
        assert assignments_of(shuffled) == base


def loop_naive(profiles, names, threshold):
    """The per-profile, per-value loop ``cluster_naive`` replaced."""
    out = {}
    for values, name in zip(profiles, names):
        best = None
        for i, v in enumerate(values):
            if v >= threshold and (best is None or v > values[best]):
                best = i
        out[name] = UNASSIGNED if best is None else f"pc{best + 1}"
    return out


def test_naive_matches_the_scalar_loop():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m, k = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        # one decimal, so ties and values equal to the threshold occur
        values = np.round(rng.uniform(0.0, 1.0, (m, k)), 1)
        names = names_of(m)
        for threshold in (0.1, 0.3, 0.5, 1.0):
            got = assignments_of(cluster_naive(values, names, threshold))
            assert got == loop_naive(values, names, threshold)


def test_naive_validation(fixture_profiles):
    profiles, names = fixture_profiles
    with pytest.raises(ValueError, match="no profiles"):
        cluster_naive(np.zeros((0, 2)), [])
    with pytest.raises(ValueError, match="threshold"):
        cluster_naive(profiles, names, threshold=0.0)
    with pytest.raises(ValueError, match=r"must be an \(m, k\) matrix"):
        cluster_naive(profiles[0], names[:1])
    with pytest.raises(ValueError, match="3 names for 4 profiles"):
        cluster_naive(profiles, names[:3])


# -- distances and assignment ---------------------------------------------


def point_distance(x, c, metric):
    return float(pairwise_distance(x[None, :], c[None, :], metric)[0, 0])


def test_point_distance_semantics():
    x = np.array([1.0, -2.0, 3.0])
    c = np.array([0.5, 1.0, -1.0])
    d = x - c
    assert point_distance(x, c, "l1") == pytest.approx(np.abs(d).sum(), abs=1e-15)
    # the l2 metric returns the squared distance, not its root
    assert point_distance(x, c, "l2") == pytest.approx(float(d @ d), abs=1e-15)
    assert point_distance(x, c, "linf") == pytest.approx(np.abs(d).max(), abs=1e-15)
    cos = float(x @ c) / (np.linalg.norm(x) * np.linalg.norm(c))
    assert point_distance(x, c, "cosine") == pytest.approx(1.0 - cos, abs=1e-12)


def test_cosine_distance_edge_cases():
    z = np.zeros(2)
    assert point_distance(z, np.array([1.0, 0.0]), "cosine") == 1.0
    assert point_distance(np.array([1.0, 0.0]), z, "cosine") == 1.0
    # parallel vectors can round 1 - cos slightly negative; it is clamped
    x = np.array([0.1, 0.2, 0.3])
    assert point_distance(x, 7.0 * x, "cosine") >= 0.0


@st.composite
def point_sets(draw):
    """Points and centers sharing a dimension, with zero rows and duplicates."""
    dim = draw(st.integers(0, 6))
    coords = st.floats(-1e3, 1e3, allow_nan=False, width=64)
    points = draw(hnp.arrays(np.float64, (draw(st.integers(1, 7)), dim), elements=coords))
    centers = draw(hnp.arrays(np.float64, (draw(st.integers(1, 5)), dim), elements=coords))
    for rows in (points, centers):
        for i in draw(st.lists(st.integers(0, rows.shape[0] - 1), max_size=2)):
            rows[i] = 0.0
    for i, j in draw(st.lists(st.tuples(st.integers(0, points.shape[0] - 1),
                                        st.integers(0, centers.shape[0] - 1)), max_size=2)):
        centers[j] = points[i]
    return points, centers


@settings(max_examples=200, deadline=None)
@given(point_sets(), st.sampled_from(METRICS))
@example((np.array([[0.0, 0.0], [0.3, 0.4]]), np.array([[0.3, 0.4], [0.0, 0.0]])), "cosine")
@example((np.array([[1e-163]]), np.array([[1e150]])), "cosine")  # |x|^2 underflows to 0
def test_pairwise_distance_matches_scalar_loop_bitwise(sets, metric):
    points, centers = sets
    got = pairwise_distance(points, centers, metric)
    want = np.array([[oracles.oracle_distance(p, c, metric) for c in centers]
                     for p in points])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # the exact path's form: every point against its own center, one row per center
    own = np.broadcast_to(centers[:, None, :], (centers.shape[0], *points.shape))
    assert _distance(points[None], own, metric).tobytes() == want.T.tobytes()


def test_assign_labels_tie_goes_to_lowest_index():
    points = np.array([[0.5, 0.0]])
    centroids = np.array([[0.0, 0.0], [1.0, 0.0]])
    labels, total = _assign_all(points, centroids[None], "l2")
    assert labels.tolist() == [[0]]
    assert total.tolist() == pytest.approx([0.25], abs=1e-15)


def test_assign_labels_matches_bruteforce():
    rng = np.random.default_rng(14)
    points = rng.standard_normal((50, 3))
    centroids = rng.standard_normal((4, 3))
    for metric in METRICS:
        labels, total = _assign_all(points, centroids[None], metric)
        dist = [[oracles.oracle_distance(p, c, metric) for c in centroids] for p in points]
        want = [int(np.argmin(row)) for row in dist]
        assert labels.tolist() == [want]
        cost = 0.0
        for row, j in zip(dist, want):
            cost += row[j]
        assert total.tolist() == [cost]  # summed in point order, as a scalar loop would


# -- k-means on the bundled instance --------------------------------------


def test_kmeans_fixture_matches_oracle_every_metric(fixture_profiles):
    points, names = fixture_profiles
    for metric in METRICS:
        a = cluster_kmeans(points, names, 2, metric=metric, seed=0)
        assert partition_of(a) == set(REF_PARTITION), metric
        # S(4, 2) = 7 partitions: enumerated unless the centroid is heuristic
        assert a.exact == (metric != "linf"), metric
        assert (a.n_iterations is None) == a.exact, metric
        assert set(a.clusters) == {"c1", "c2"}
        assert a.clusters["c1"][0] == "Sepal Length"  # canonical id order
        cost, blocks = oracles.best_partition(points, 2, metric)
        got_blocks = {
            frozenset(i for i, name in enumerate(names) if name in m)
            for m in partition_of(a)
        }
        assert got_blocks == blocks, metric
        if metric == "linf":
            # heuristic centroid: Lloyd may land below the mean-centroid cost
            assert a.objective <= cost + 1e-12
        else:
            assert a.objective == pytest.approx(cost, abs=1e-12), metric


def test_kmeans_agrees_with_naive_on_fixture(fixture_profiles):
    naive = partition_of(cluster_naive(*fixture_profiles))
    for metric in METRICS:
        assert partition_of(cluster_kmeans(*fixture_profiles, 2, metric=metric)) == naive


def test_kmeans_is_deterministic(fixture_profiles):
    a = cluster_kmeans(*fixture_profiles, 2, metric="l2", seed=3)
    b = cluster_kmeans(*fixture_profiles, 2, metric="l2", seed=3)
    assert assignments_of(a) == assignments_of(b)
    assert a.objective == b.objective
    assert a.n_iterations == b.n_iterations


def test_kmeans_validation(fixture_profiles):
    with pytest.raises(ValueError, match="k_clusters"):
        cluster_kmeans(*fixture_profiles, 0)
    with pytest.raises(ValueError, match="k_clusters"):
        cluster_kmeans(*fixture_profiles, 5)
    with pytest.raises(ValueError, match="unknown metric"):
        cluster_kmeans(*fixture_profiles, 2, metric="mahalanobis")
    with pytest.raises(ValueError, match="no profiles"):
        cluster_kmeans(np.zeros((0, 2)), [], 1)
    profiles, names = fixture_profiles
    with pytest.raises(ValueError, match=r"must be an \(m, k\) matrix"):
        cluster_kmeans(profiles[None], names, 1)
    with pytest.raises(ValueError, match="5 names for 4 profiles"):
        cluster_kmeans(profiles, [*names, "extra"], 2)
    with pytest.raises(ValueError, match="unknown metric"):
        lloyd(np.eye(2), np.eye(2)[None], "mahalanobis")
    with pytest.raises(ValueError, match="starts must be"):
        lloyd(np.eye(2), np.eye(2), "l2")
    assert lloyd(np.zeros((0, 2)), np.eye(2)[None], "l2")[0].objective == 0.0
    with pytest.raises(ValueError, match="unknown metric"):
        pairwise_distance(np.eye(2), np.eye(2), "mahalanobis")


def test_kmeans_rejects_negative_seed_on_both_paths(fixture_profiles):
    # S(4, 2) = 7: l2 enumerates the partitions, linf always restarts
    assert cluster_kmeans(*fixture_profiles, 2, metric="l2").exact
    assert not cluster_kmeans(*fixture_profiles, 2, metric="linf").exact
    for metric in ("l2", "linf"):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            cluster_kmeans(*fixture_profiles, 2, metric=metric, seed=-1)


def test_kmeans_assignment_json():
    # the report writes the clusters block from the assignment and its own arguments
    corr = fixture_path("iris_corr.json")
    doc = run_analysis(corr, cluster_method="kmeans", metric="l1")["clusters"]
    assert set(doc) == {"method", "metric", "objective", "exact", "clusters"}
    assert doc["method"] == "kmeans" and doc["metric"] == "l1"
    assert set(doc["clusters"]) == {"c1", "c2"}
    assert isinstance(doc["objective"], float)
    # S(4, 2) = 7 partitions are scored exactly; linf always restarts
    assert doc["exact"] is True
    assert run_analysis(corr, cluster_method="kmeans", metric="linf")["clusters"]["exact"] is False
    assert "exact" not in run_analysis(corr)["clusters"]


# objective and cluster of v1..v12 that the restart path returned before
# exact enumeration existed, on the 12-variable instance below
RESTART_PATH_RESULTS = {
    "l1": (1.7370076927805997, "123234222232"),
    "l2": (0.17522058394631906, "123334222213"),
    "cosine": (0.25122644692474083, "121213242412"),
    "linf": (1.006740090300333, "123114222211"),
}


def test_kmeans_above_budget_keeps_restart_path():
    profs = profiles_of(np.random.default_rng(5), 12, 3)
    assert oracles.stirling2(12, 4) == 611501 > EXACT_BUDGET
    for metric, (objective, clusters) in RESTART_PATH_RESULTS.items():
        a = cluster_kmeans(profs, names_of(12), 4, metric=metric, seed=0)
        assert a.exact is False and isinstance(a.n_iterations, int), metric
        assert a.objective == pytest.approx(objective, rel=1e-12, abs=1e-15), metric
        assert [assignments_of(a)[f"v{i + 1}"] for i in range(12)] == [f"c{c}" for c in clusters]


# objective, Lloyd iterations and cluster of v1..v32 recorded from the
# per-pair scalar implementation, on the 32-variable instance below
RESTART_32_RESULTS = {
    "l1": (43.38289040815167, 2, [1, 2, 3, 4, 4, 5, 6, 1, 7, 8, 3, 7, 8, 9, 5, 8,
                                  5, 3, 10, 11, 12, 3, 7, 4, 11, 11, 1, 4, 1, 2, 2, 5]),
    "l2": (11.447868651084056, 2, [1, 2, 2, 3, 4, 5, 6, 1, 7, 8, 9, 7, 9, 10, 11, 8,
                                   2, 9, 3, 4, 12, 9, 7, 1, 4, 4, 4, 5, 1, 2, 4, 11]),
    "cosine": (1.4718626327619466, 2, [1, 2, 2, 3, 4, 5, 6, 1, 7, 8, 2, 9, 8, 10, 5, 8,
                                       5, 7, 3, 4, 11, 12, 9, 1, 4, 4, 4, 2, 1, 2, 4, 5]),
    "linf": (9.811800797491404, 3, [1, 2, 3, 4, 4, 5, 6, 1, 7, 8, 2, 8, 8, 9, 7, 9,
                                    2, 8, 4, 10, 11, 8, 1, 10, 12, 10, 10, 10, 7, 2, 10, 9]),
}


def test_kmeans_32_variables_matches_scalar_implementation():
    pts = np.random.default_rng(32).random((32, 12))
    for metric, (objective, n_iterations, clusters) in RESTART_32_RESULTS.items():
        a = cluster_kmeans(pts, names_of(32), 12, metric=metric)
        assert not a.exact, metric
        assert a.objective == objective, metric
        assert a.n_iterations == n_iterations, metric
        assert [assignments_of(a)[f"v{i + 1}"] for i in range(32)] == [f"c{c}" for c in clusters]


# Lloyd from two data points and two centroids no point is near, so the
# first assignment leaves clusters 2 and 3 empty: labels and objective
# history recorded from the per-pair scalar implementation
EMPTY_CLUSTER_RESULTS = {
    "l1": ([0, 1, 1, 0, 2, 1, 1, 3, 3, 1, 1, 1, 2, 2, 3],
           [7.1884807215686894, 5.319436212443194, 4.9195378402911185, 4.80349261150988]),
    "l2": ([0, 1, 0, 0, 3, 1, 1, 1, 2, 1, 0, 1, 3, 3, 2],
           [2.156100240319218, 1.229872963875745, 1.0923530966201078, 0.9138129372613379,
            0.8662239801738723]),
    "linf": ([0, 1, 0, 0, 3, 1, 2, 1, 2, 1, 0, 1, 3, 3, 2],
             [3.9795064452125253, 3.083791621725109, 2.891304773729902, 2.6890655865201367,
              2.538272815575371]),
}


def test_lloyd_refills_empty_clusters_as_before():
    points = np.random.default_rng(3).random((15, 3))
    init = np.vstack([points[:2], [[50.0, 50.0, 50.0], [60.0, 60.0, 60.0]]])
    for metric, (labels, history) in EMPTY_CLUSTER_RESULTS.items():
        first = pairwise_distance(points, init, metric).argmin(axis=1)
        assert set(first.tolist()) == {0, 1}  # the far centroids win nothing
        res = lloyd(points, init[None], metric)[0]
        assert res.converged, metric
        assert res.labels.tolist() == labels, metric
        assert res.history == history, metric


# -- k-means mechanics ----------------------------------------------------


def test_duplicate_points_fill_every_cluster():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    a = cluster_kmeans(pts, names_of(3), 3, metric="l2")
    assert sorted(len(m) for m in a.clusters.values()) == [1, 1, 1]
    assert a.objective == 0.0


def test_cosine_zero_profile_is_parked():
    profs = np.array([[0.9, 0.1], [0.0, 0.0], [0.1, 0.8]])
    a = cluster_kmeans(profs, ["a", "b", "c"], 2, metric="cosine")
    assert assignments_of(a)["b"] == UNASSIGNED
    assert a.clusters[UNASSIGNED] == ["b"]
    # the two live profiles still split
    assert assignments_of(a)["a"] != assignments_of(a)["c"]
    with pytest.raises(ValueError, match="k_clusters"):
        cluster_kmeans(profs, ["a", "b", "c"], 3, metric="cosine")


def test_lloyd_history_is_nonincreasing():
    rng = np.random.default_rng(88)
    for _ in range(40):
        n = int(rng.integers(4, 7))
        points = profiles_of(rng, n, int(rng.integers(2, 4)))
        kc = int(rng.integers(2, min(4, n + 1)))
        for metric in METRICS:
            init = points[rng.choice(n, size=kc, replace=False)]
            res = lloyd(points, init[None], metric)[0]
            assert all(a >= b - 1e-12 for a, b in zip(res.history, res.history[1:])), metric
            assert res.converged or res.guard_tripped or len(res.history) == MAX_ITER + 1


def test_guard_trips_only_for_chebyshev():
    rng = np.random.default_rng(89)
    for _ in range(60):
        points = profiles_of(rng, int(rng.integers(4, 7)), 2)
        init = points[rng.choice(points.shape[0], size=2, replace=False)]
        for metric in ("l1", "l2", "cosine"):
            assert not lloyd(points, init[None], metric)[0].guard_tripped


# -- lockstep restarts against the restart loop ----------------------------


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def restart_instances(draw):
    """Profiles on the restart path: 11 to 20 variables in 2 to 6 clusters
    (S(m, k) > EXACT_BUDGET for all of them) with 1 to 4 coordinates, and
    one-decimal values in half the draws, so that ties and duplicates occur."""
    m = draw(st.integers(11, 20))
    if draw(st.booleans()):
        cells = st.integers(0, 10).map(lambda i: i / 10)
    else:
        cells = st.floats(0.0, 1.0, allow_nan=False, width=64)
    points = draw(hnp.arrays(np.float64, (m, draw(st.integers(1, 4))), elements=cells))
    return points, draw(st.integers(2, 6)), draw(st.integers(0, 50))


def check_against_restart_loop(points, kc, metric, seed):
    """Assert ``cluster_kmeans`` equals the restart loop bitwise; return the
    loop's descents, or None when the instance is clustered exactly."""
    active = np.arange(points.shape[0])
    if metric == "cosine":
        active = np.flatnonzero(np.linalg.norm(points, axis=1) > 0.0)  # zero profiles are parked
        if active.shape[0] < kc:
            return None
    got = cluster_kmeans(points, names_of(points.shape[0]), kc, metric=metric, seed=seed)
    if got.exact:
        return None
    best, runs = oracles.restart_kmeans(points[active], kc, metric, seed)
    canonical = {lbl: f"c{rank + 1}" for rank, lbl in enumerate(dict.fromkeys(best.labels.tolist()))}
    assert [assignments_of(got)[f"v{i + 1}"] for i in active] == [canonical[lbl] for lbl in best.labels.tolist()]
    assert got.objective.hex() == best.objective.hex(), metric
    assert got.n_iterations == len(best.history) - 1, metric
    return runs


@settings(max_examples=60, deadline=None)
@given(restart_instances())
def test_kmeans_restarts_match_the_restart_loop_bitwise(instance):
    points, kc, seed = instance
    assert oracles.stirling2(points.shape[0], kc) > EXACT_BUDGET
    for metric in METRICS:
        check_against_restart_loop(points, kc, metric, seed)


# seed 0 is one zero word; 2**128 and above hash words past the pool of four
DRAW_SEEDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**128 - 1),
                       st.integers(2**128, 2**300))
# rejection takes (2**32 mod m) / 2**32 of the draws: up to half just above 2**31
DRAW_SIZES = st.one_of(st.integers(1, MAX_COLUMNS), st.integers(2**31 + 1, 2**31 + 2**20),
                       st.integers(2**32 - 2**20, 2**32 - 1))


@settings(max_examples=400, deadline=None)
@given(DRAW_SEEDS, DRAW_SIZES)
@example(0, 1)
@example(0, 2**31 + 1)
@example(2**128, MAX_COLUMNS)
@example(2**32 - 1, 2**32 - 1)
def test_start_draw_is_numpy_integers_bit_for_bit(seed, m):
    assert _draw_index(seed, m) == int(np.random.default_rng(seed).integers(m))


def test_start_draw_examples_reach_the_rejection_loop():
    # the first 32-bit word of seed 0 falls below 2**32 mod m for m = 2**31 + 1
    m = 2**31 + 1
    low = int(np.random.PCG64(0).random_raw()) & 0xFFFFFFFF
    assert low * m % 2**32 < 2**32 % m


def check_lloyd_against_restart_loop(points, starts, metric):
    """Assert ``lloyd`` from every start equals the restart loop bitwise;
    return the loop's descents."""
    results = lloyd(points, starts, metric)
    assert len(results) == starts.shape[0]
    runs = []
    for start, got in zip(starts, results):
        want = oracles.restart_lloyd(points, start, metric)
        assert got.labels.tolist() == want.labels.tolist(), metric
        assert same_bits(got.centroids, want.centroids), metric
        assert same_bits(got.history, want.history), metric
        assert got.objective.hex() == want.objective.hex(), metric
        assert (got.converged, got.guard_tripped) == (want.converged, want.guard_tripped)
        runs.append(want)
    return runs


def far_starts(points, picks, far):
    """Starts at the picked points, those flagged ``far`` moved by -50 in
    every coordinate.  Points lie in [0, 1], so under every metric a far
    start is farther from each point than any start at a point (under
    cosine its dot product with a point is negative): unless every start
    is far, it wins no point and its cluster is refilled."""
    return points[picks] - 50.0 * far[..., None]


def test_restart_loop_comparison_covers_refills_and_guard_trips():
    """The comparisons above on seeded one-decimal profiles, checked to reach
    Chebyshev guard trips and, under every metric, empty-cluster refills in
    the restart loop.  Farthest-point starts refill only under cosine, so
    refills under the other metrics come from far starts."""
    rng, far_rng = np.random.default_rng(17), np.random.default_rng(18)
    refills = dict.fromkeys(METRICS, 0)
    guard_trips = 0
    for _ in range(30):
        m, kc, dim = int(rng.integers(11, 21)), int(rng.integers(2, 7)), int(rng.integers(1, 5))
        points = np.round(rng.random((m, dim)), 1)
        for metric in METRICS:
            runs = check_against_restart_loop(points, kc, metric, int(rng.integers(50)))
            refills[metric] += sum(run.refills > 0 for run in runs or ())
            guard_trips += sum(run.guard_tripped for run in runs or ())
        # cosine needs a direction for every point
        points[np.linalg.norm(points, axis=1) == 0.0] = 1.0
        starts = far_starts(points, far_rng.integers(m, size=(2, kc)), far_rng.random((2, kc)) < 0.3)
        for metric in METRICS:
            runs = check_lloyd_against_restart_loop(points, starts, metric)
            refills[metric] += sum(run.refills > 0 for run in runs)
    assert guard_trips > 0 and all(refills.values()), (refills, guard_trips)


@settings(max_examples=60, deadline=None)
@given(restart_instances(), st.data())
def test_lloyd_matches_the_restart_loop_per_start(instance, data):
    points, kc, _ = instance
    # cosine needs a direction for every point
    points[np.linalg.norm(points, axis=1) == 0.0] = 1.0
    picks = data.draw(hnp.arrays(np.int64, (data.draw(st.integers(1, 4)), kc),
                                 elements=st.integers(0, points.shape[0] - 1)))
    far = data.draw(hnp.arrays(np.bool_, picks.shape))
    for metric in METRICS:
        check_lloyd_against_restart_loop(points, far_starts(points, picks, far), metric)


def numpy_centroid(members, metric):
    if metric == "l1":
        return np.median(members, axis=0)
    if metric == "cosine":
        return oracles.oracle_centroid(members, metric)
    return members.mean(axis=0)


def check_centroid_pass(points, labels, before):
    for metric in METRICS:
        got = _centroids(points, labels, before, metric)
        for r, c in np.ndindex(*before.shape[:2]):
            members = points[labels[r] == c]
            want = numpy_centroid(members, metric) if members.shape[0] else before[r, c]
            assert same_bits(got[r, c], want), (metric, r, c, got[r, c], want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_centroid_pass_matches_numpy_group_by_group(data):
    dim = data.draw(st.integers(1, 4))
    cells = st.sampled_from([-0.0, 0.0, 0.1, 0.5, -1.0]) | st.floats(-10.0, 10.0, allow_nan=False, width=64)
    points = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 24)), dim), elements=cells))
    points[np.linalg.norm(points, axis=1) == 0.0, 0] = -0.5  # cosine needs a direction
    kc = data.draw(st.integers(1, 6))
    labels = data.draw(hnp.arrays(np.int64, (data.draw(st.integers(1, 4)), points.shape[0]),
                                  elements=st.integers(0, kc - 1)))
    before = data.draw(hnp.arrays(np.float64, (labels.shape[0], kc, dim), elements=cells))
    check_centroid_pass(points, labels, before)


def test_centroid_pass_edge_groups():
    points = np.array([
        [-0.0, 1.0], [-0.0, 2.0],               # two -0.0 cells: both sums read +0.0
        [0.3, -0.0],                             # one member
        [0.2, 0.1], [0.6, -0.0], [0.4, 0.5],    # odd count
        [1.0, 0.5], [-1.0, -0.5],                # unit vectors cancel
        [0.1, 0.9], [0.7, 0.3], [0.5, 0.5], [0.9, 0.2],  # even count
    ])
    labels = np.array([[0, 0, 1, 2, 2, 2, 3, 3, 4, 4, 4, 4],
                       [4, 4, 4, 4, 0, 0, 1, 1, 1, 1, 1, 1]])
    before = np.full((2, 6, 2), 7.0)  # cluster 5 stays empty
    check_centroid_pass(points, labels, before)
    for metric in ("l1", "l2", "linf"):
        assert _centroids(points, labels, before, metric)[0, 0].tobytes() == np.array([0.0, 1.5]).tobytes()
    cosine = _centroids(points, labels, before, "cosine")
    assert cosine[0, 3].tolist() == [1.0, 0.5]  # the first member of a cancelling group


# -- enumeration oracle ---------------------------------------------------


def test_partition_listing_matches_oracle():
    for m in range(1, 8):
        for k in range(1, m + 1):
            want = []
            for blocks in oracles.partitions_into_k(m, k):
                labels = [0] * m
                for b, block in enumerate(blocks):
                    for i in block:
                        labels[i] = b
                want.append(labels)
            assert _partitions(m, k).tolist() == want, (m, k)
            assert oracles.stirling2(m, k) == len(want), (m, k)
            # built once per (m, k) and shared, so no caller may write it
            assert _partitions(m, k) is _partitions(m, k)
            assert not _partitions(m, k).flags.writeable


def test_exact_path_decision_matches_the_full_stirling_table():
    # _within_budget stops at the first entry of the table past the budget
    for m in range(1, 61):
        for k in range(1, m + 1):
            assert _within_budget(m, k) == (oracles.stirling2(m, k) <= EXACT_BUDGET), (m, k)


@st.composite
def tied_instances(draw):
    """Small grid-valued profiles, so that distinct partitions often tie,
    with a cluster count whose partitions the exact path enumerates."""
    m = draw(st.integers(1, 7))
    dim = draw(st.integers(1, 3))
    grid = st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    points = draw(hnp.arrays(np.float64, (m, dim), elements=grid))
    return points, draw(st.integers(1, m)), draw(st.sampled_from(["l1", "l2", "cosine"]))


@settings(max_examples=150, deadline=None)
@given(tied_instances())
@example((np.array([[0.2], [0.2], [0.2], [0.2], [0.0]]), 3, "l2"))
def test_exact_path_returns_the_first_partition_of_least_objective(instance):
    """Every partition scored as a scalar loop would: each point's oracle
    distance to its block's oracle centroid, added in point order."""
    points, kc, metric = instance
    names = names_of(points.shape[0])
    if metric == "cosine":  # zero profiles are parked, not clustered
        active = np.linalg.norm(points, axis=1) > 0.0
        points, names = points[active], [n for n, keep in zip(names, active) if keep]
    m = points.shape[0]
    if not 1 <= kc <= m:
        return
    assert oracles.stirling2(m, kc) <= EXACT_BUDGET
    best = None
    for blocks in oracles.partitions_into_k(m, kc):
        centroid = {}
        for block in blocks:
            c = oracles.oracle_centroid(points[list(block)], metric)
            centroid.update((i, c) for i in block)
        cost = 0.0
        for i in range(m):
            cost += oracles.oracle_distance(points[i], centroid[i], metric)
        if best is None or cost < best[0]:
            best = cost, blocks
    got = cluster_kmeans(points, names, kc, metric=metric)
    assert got.exact
    assert got.objective.hex() == best[0].hex()
    assert list(got.clusters.values()) == [[names[i] for i in block] for block in best[1]]


def test_kmeans_reaches_enumeration_optimum_on_small_instances():
    """Seeded sweep: restarted k-means must hit the exhaustive optimum.

    Runs on pipeline-generated profiles, small enough to enumerate every
    partition, for the three metrics with exact centroid steps.  All
    deviations are collected and reported together.
    """
    rng = np.random.default_rng(7)
    misses = []
    for trial in range(120):
        n = int(rng.integers(4, 7))
        points = profiles_of(rng, n, int(rng.integers(2, 4)))
        kc = int(rng.integers(2, 4))
        for metric in ("l1", "l2", "cosine"):
            if metric == "cosine" and (np.linalg.norm(points, axis=1) == 0.0).any():
                continue
            got = cluster_kmeans(points, names_of(n), kc, metric=metric, seed=0).objective
            want, _ = oracles.best_partition(points, kc, metric)
            if got > want + 1e-9:
                misses.append(f"trial {trial} {metric}: kmeans {got:.9f} vs optimum {want:.9f}")
    assert not misses, "restarts missed the enumeration optimum on:\n" + "\n".join(misses)
