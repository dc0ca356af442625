"""Acceptance gate: the quoted desk-scale results, one line per criterion.

Each test prints a PASS/FAIL line with its measured numbers even under
captured output, so a full run shows the whole gate at a glance.
Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from pcageom import cli
from pcageom.corrstats import CorrelationMatrix, angle_deg, significance
from pcageom.eigensolve import eigen_symmetric
from pcageom.pcacore import explanation_table, select_components, variance_explained
from pcageom.report import run_analysis
from pcageom.tensorops import build_virtual, verify_relations
from pcageom.varcluster import cluster_kmeans, cluster_naive, similarity_profiles
from pcageom.fixtures import fixture_path

from conftest import (
    REF_COMPONENT_LENGTHS_3DP,
    REF_DETERMINATION_3DP,
    REF_EIGENVALUES_3DP,
    REF_EIGENVECTORS_3DP,
    REF_LOADINGS_3DP,
    REF_ANGLES_3DP,
    REF_PARTITION,
    REF_PERCENT_2DP,
    REF_RECONSTRUCTION_K2_2DP,
    REF_VECTOR_IN,
    REF_VECTOR_OUT,
    sign_normalize_columns,
    sign_normalize_rows,
)
import oracles


def announce(capsys, num, slug, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_eigenvalues(capsys, corr_fixture, eigen_fixture):
    dev = np.abs(eigen_fixture.eigenvalues - REF_EIGENVALUES_3DP).max()
    best = min(
        (lambda t0: (eigen_symmetric(corr_fixture), time.perf_counter() - t0)[1])(
            time.perf_counter()
        )
        for _ in range(50)
    )
    ok = dev <= 0.001 and best < 1e-3
    announce(capsys, 1, "eigenvalues", ok, f"max dev {dev:.1e}, best run {best * 1e6:.0f} us")
    assert dev <= 0.001
    assert best < 1e-3


def test_criterion_02_eigenvectors(capsys, eigen_fixture):
    got = sign_normalize_columns(eigen_fixture.U)
    ref = sign_normalize_columns(REF_EIGENVECTORS_3DP)
    # the table is quoted at 3 decimals, so compare after matching rounding
    dev = np.abs(np.round(got, 3) - ref).max()
    ok = dev <= 0.002 + 1e-12
    announce(capsys, 2, "eigenvectors", ok, f"max componentwise dev {dev:.4f}")
    assert ok


def test_criterion_03_significance(capsys, corr_fixture):
    p_weak = significance(-0.063, 150)
    dev = abs(p_weak - 0.446)
    strong = []
    n = corr_fixture.n_obs
    r = corr_fixture.r
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(r[i, j]) >= 0.3:
                strong.append(significance(r[i, j], n))
    ok = dev <= 0.005 and max(strong) < 0.0005
    announce(
        capsys, 3, "significance", ok,
        f"p(-0.063) = {p_weak:.4f} (dev {dev:.4f}), strongest pair p <= {max(strong):.1e}",
    )
    assert dev <= 0.005
    assert max(strong) < 0.0005


def test_criterion_04_angles(capsys, corr_fixture):
    r = corr_fixture.r
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    devs = []
    for (i, j), (r_ref, deg_ref) in zip(pairs, REF_ANGLES_3DP):
        assert r[i, j] == pytest.approx(r_ref, abs=5e-4)
        devs.append(abs(angle_deg(r[i, j]) - deg_ref))
    dev = max(devs)
    ok = dev <= 0.05
    announce(capsys, 4, "angles", ok, f"max dev {dev:.3f} deg over 6 pairs")
    assert ok


def test_criterion_05_variance_explained(capsys, eigen_fixture):
    ve = variance_explained(eigen_fixture.eigenvalues)
    dev = np.abs(ve.percent - REF_PERCENT_2DP).max()
    cum_dev = abs(ve.cumulative_percent[1] - 95.24)
    ok = dev <= 0.03 and cum_dev <= 0.03
    announce(
        capsys, 5, "variance-explained", ok,
        f"max percent dev {dev:.3f} pp, cumulative(2) dev {cum_dev:.3f} pp",
    )
    assert ok


def test_criterion_06_loadings_determination(capsys, table_full, eigen_fixture):
    load_dev = np.abs(
        sign_normalize_rows(table_full.loading) - sign_normalize_rows(REF_LOADINGS_3DP)
    ).max()
    det_dev = np.abs(table_full.determination - REF_DETERMINATION_3DP).max()
    col_dev = np.abs(table_full.column_sums - 1.0).max()
    row_dev = np.abs(table_full.row_sums - eigen_fixture.eigenvalues).max()
    ok = load_dev <= 0.002 and det_dev <= 0.002 and col_dev <= 1e-9 and row_dev <= 1e-9
    announce(
        capsys, 6, "loadings-determination", ok,
        f"loading dev {load_dev:.4f}, determination dev {det_dev:.4f}, "
        f"identity devs {col_dev:.1e}/{row_dev:.1e}",
    )
    assert ok


def test_criterion_07_reconstruction_criterion(capsys, table_k2, table_full, eigen_fixture):
    pct = 100.0 * table_k2.column_sums
    dev = np.abs(pct - REF_RECONSTRUCTION_K2_2DP).max()
    k90 = select_components(eigen_fixture.eigenvalues, table_full, "per_variable", 0.90).k
    k93 = select_components(eigen_fixture.eigenvalues, table_full, "per_variable", 0.93).k
    ok = dev <= 0.1 and k90 == 2 and k93 == 3
    announce(
        capsys, 7, "per-variable-reconstruction", ok,
        f"max column-sum dev {dev:.3f} pp, k(0.90) = {k90}, k(0.93) = {k93}",
    )
    assert ok


def test_criterion_08_clustering(capsys, table_k2):
    profiles = similarity_profiles(table_k2)
    points = np.array([p.values for p in profiles])
    want = set(REF_PARTITION)

    def partition(assignment):
        return {
            frozenset(m)
            for cid, m in assignment.clusters.items()
            if m and cid != "unassigned"
        }

    naive_ok = partition(cluster_naive(profiles, 0.5)) == want
    metric_ok = {}
    oracle_dev = {}
    for metric in ("l1", "l2", "linf", "cosine"):
        a = cluster_kmeans(profiles, 2, metric=metric, seed=0)
        cost, blocks = oracles.best_partition(points, 2, metric)
        got_blocks = {
            frozenset(i for i, p in enumerate(profiles) if p.variable in m)
            for m in partition(a)
        }
        metric_ok[metric] = partition(a) == want and got_blocks == blocks
        if metric != "linf":  # heuristic centroid, objective not comparable
            oracle_dev[metric] = abs(a.objective - cost)
    ok = naive_ok and all(metric_ok.values()) and max(oracle_dev.values()) <= 1e-9
    announce(
        capsys, 8, "clustering", ok,
        f"naive {'ok' if naive_ok else 'WRONG'}, k-means partitions "
        f"{sum(metric_ok.values())}/4, max objective dev {max(oracle_dev.values()):.1e}",
    )
    assert ok


def test_criterion_09_relation_grid(capsys, virtual_fixture, eigen_fixture, corr_fixture):
    t0 = time.perf_counter()
    checks = verify_relations(virtual_fixture, eigen_fixture, corr_fixture)
    fixture_ok = len(checks) == 22 and all(c.passed for c in checks)
    a_dev = max(
        np.abs(virtual_fixture.A - virtual_fixture.A.T).max(),
        np.abs(virtual_fixture.A @ virtual_fixture.A - corr_fixture.r).max(),
    )
    diag_dev = np.abs(np.diag(virtual_fixture.P_prime) - REF_COMPONENT_LENGTHS_3DP).max()
    rng = np.random.default_rng(909)
    sweep_ok = True
    for _ in range(500):
        n = int(rng.integers(2, 7))
        corr = CorrelationMatrix(
            r=oracles.random_correlation(rng, n),
            n_obs=10,
            names=[f"v{i + 1}" for i in range(n)],
        )
        eig = eigen_symmetric(corr)
        if not all(c.passed for c in verify_relations(build_virtual(eig), eig, corr)):
            sweep_ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = fixture_ok and sweep_ok and a_dev <= 1e-8 and diag_dev <= 0.003 and elapsed < 5.0
    announce(
        capsys, 9, "tensor-identities", ok,
        f"fixture 22/22, 500-matrix sweep {'clean' if sweep_ok else 'FAILED'}, "
        f"A dev {a_dev:.1e}, length dev {diag_dev:.4f}, {elapsed:.2f} s",
    )
    assert ok


def test_criterion_10_quoted_vector_rotation(capsys):
    """The quoted 2-D example must be reproducible by a pure rotation.

    The one-parameter least-squares rotation taking the input closest to
    the quoted image leaves a residual three orders of magnitude above
    the gate, and the two vectors have different lengths (1.71529 vs
    1.91448), which no rotation can bridge.  Kept as stated; fails.
    """
    v, vp = REF_VECTOR_IN, REF_VECTOR_OUT
    theta = math.atan2(v[1] * vp[0] - v[0] * vp[1], float(v @ vp))
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, s], [-s, c]])
    mapped = rot @ v
    residual = float(np.linalg.norm(mapped - vp))
    point_dev = np.abs(mapped - vp).max()
    ok = residual < 1e-3 and point_dev <= 0.002
    announce(
        capsys, 10, "quoted-vector-rotation", ok,
        f"best angle {math.degrees(theta):.2f} deg, residual {residual:.5f}, "
        f"norms {np.linalg.norm(v):.5f} vs {np.linalg.norm(vp):.5f}",
    )
    assert residual < 1e-3, (
        "the quoted input/image pair is not related by any rotation: "
        f"least-squares residual {residual:.5f}"
    )
    assert point_dev <= 0.002


def test_criterion_11_end_to_end_iris(capsys, corr_fixture):
    r = run_analysis(fixture_path("iris.csv"), columns="1-4", header=True)
    cum2 = r["variance_explained"][1]["cumulative_percent"]
    computed_r = np.array(r["correlation"]["r"])
    signs_ok = bool(np.all(np.sign(computed_r) == np.sign(corr_fixture.r)))
    members = {
        frozenset(m)
        for cid, m in r["clusters"]["clusters"].items()
        if m and cid != "unassigned"
    }
    partition_ok = members == set(REF_PARTITION)
    lam = np.array(r["eigen"]["eigenvalues"])
    score_var = np.array([s["variance"] for s in r["scores"]["summaries"]])
    score_dev = np.abs(score_var - lam * 150.0 / 149.0).max()
    ok = cum2 >= 95.0 and signs_ok and partition_ok and score_dev <= 1e-8
    announce(
        capsys, 11, "end-to-end-iris", ok,
        f"cumulative(2) {cum2:.2f}%, correlation signs "
        f"{'match' if signs_ok else 'DIFFER'}, partition "
        f"{'match' if partition_ok else 'DIFFER'}, score variance dev {score_dev:.1e}",
    )
    assert ok


def test_criterion_12_byte_identical_reports(capsys, tmp_path):
    blobs = []
    for d in ("first", "second"):
        out = tmp_path / d
        code = cli.main(
            ["analyze", "fixtures/iris_corr.json", "--clusters", "kmeans", "--out", str(out)]
        )
        assert code == 0
        blobs.append((out / "report.json").read_bytes())
    ok = blobs[0] == blobs[1]
    announce(
        capsys, 12, "deterministic-reports", ok,
        f"report.json {len(blobs[0])} bytes, runs identical: {ok}",
    )
    assert ok
