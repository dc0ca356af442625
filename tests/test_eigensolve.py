"""Jacobi eigendecomposition, ordering conventions, and the PSD gate.

The sweep tests check every decomposition against eigenvalues recovered
independently by bisecting the characteristic polynomial, and larger
ones against LAPACK's ``np.linalg.eigh``.
"""

import itertools
import math

import numpy as np
import pytest

from pcageom import eigensolve
from pcageom.corrstats import CorrelationMatrix
from pcageom.eigensolve import (
    MAX_SWEEPS,
    PSD_CLAMP,
    eigen_symmetric,
    jacobi_eigh,
    jacobi_sweeps,
    offdiag_norm,
    rotation_from_eigenvectors,
    round_robin_schedule,
)
from pcageom.errors import ConvergenceError, DataError

from conftest import (
    REF_EIGENVALUES,
    REF_EIGENVECTORS_3DP,
    sign_normalize_columns,
)
import oracles


def corr_of(r, n_obs=10):
    r = np.asarray(r, dtype=np.float64)
    names = [f"v{i + 1}" for i in range(r.shape[0])]
    return CorrelationMatrix(r=r, n_obs=n_obs, names=names)


# -- off-diagonal norm ----------------------------------------------------


def test_offdiag_norm_direct():
    a = np.array([[1.0, 2.0, -3.0], [2.0, 5.0, 4.0], [-3.0, 4.0, 9.0]])
    want = math.sqrt(2 * (4.0 + 9.0 + 16.0))
    assert offdiag_norm(a) == pytest.approx(want, rel=1e-15)


def test_offdiag_norm_survives_huge_diagonal():
    # a difference of total norms would cancel these tiny entries away
    a = np.diag(np.full(4, 1e8))
    a[0, 1] = a[1, 0] = 1e-8
    assert offdiag_norm(a) == pytest.approx(math.sqrt(2) * 1e-8, rel=1e-12)


# -- round-robin sweeps -----------------------------------------------------


@pytest.mark.parametrize("n", range(1, 10))
def test_round_robin_schedule_covers_each_pair_once(n):
    p, q = round_robin_schedule(n)
    rounds, per_round = (n - 1, n // 2) if n % 2 == 0 else (n, (n - 1) // 2)
    assert p.shape == q.shape == (rounds, per_round)
    assert (p < q).all()
    pairs = sorted(zip(p.ravel().tolist(), q.ravel().tolist()))
    assert pairs == list(itertools.combinations(range(n), 2))
    for row_p, row_q in zip(p, q):
        touched = np.concatenate([row_p, row_q])
        assert np.unique(touched).size == touched.size
    assert round_robin_schedule(n) is round_robin_schedule(n)
    assert not p.flags.writeable


def _sweep_pair_by_pair(a, v, pairs):
    """One sweep, one plane rotation at a time: the scalar reference."""
    for p, q in pairs:
        apq = a[p, q]
        if apq == 0.0:
            continue
        theta = 0.5 * (a[p, p] - a[q, q]) / apq
        if abs(theta) > 1e10:
            t = -0.5 / theta
        else:
            t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
            if theta > 0.0:
                t = -t
        c = 1.0 / math.sqrt(t * t + 1.0)
        s = t * c
        a[:, [p, q]] = a[:, [p, q]] @ np.array([[c, s], [-s, c]])
        a[[p, q], :] = np.array([[c, -s], [s, c]]) @ a[[p, q], :]
        a[p, q] = a[q, p] = 0.0
        v[:, [p, q]] = v[:, [p, q]] @ np.array([[c, s], [-s, c]])


def test_round_rotations_match_scalar_reference(monkeypatch):
    rng = np.random.default_rng(8)
    m = rng.standard_normal((7, 7))
    dense = 0.5 * (m + m.T)
    dense[1, 4] = dense[4, 1] = 0.0
    # off-diagonal entries far below the diagonal gaps take the |theta| > 1e10 branch
    tiny = np.diag(np.arange(1.0, 8.0)) + 1e-12 * dense
    p, q = round_robin_schedule(7)
    pairs = list(zip(p.ravel().tolist(), q.ravel().tolist()))
    monkeypatch.setattr(eigensolve, "MAX_SWEEPS", 1)
    for a in (dense, tiny):
        got_a, got_v = a.copy(), np.eye(7)
        assert jacobi_sweeps(got_a, got_v, 0.0)[0] == 1
        want_a, want_v = a.copy(), np.eye(7)
        _sweep_pair_by_pair(want_a, want_v, pairs)
        np.testing.assert_allclose(got_a, want_a, rtol=0, atol=1e-14 * np.abs(a).max())
        np.testing.assert_allclose(got_v, want_v, rtol=0, atol=1e-14)


def test_jacobi_sweeps_decomposes():
    rng = np.random.default_rng(21)
    m = rng.standard_normal((6, 6))
    a = 0.5 * (m + m.T)
    work = a.copy()
    v = np.eye(6)
    target = 1e-12 * np.linalg.norm(a, "fro")
    sweeps, off = jacobi_sweeps(work, v, target)
    assert 0 < sweeps <= MAX_SWEEPS
    assert off <= target
    assert offdiag_norm(work) <= target
    w = np.diag(work)
    assert np.abs(v @ np.diag(w) @ v.T - a).max() < 1e-12


def test_jacobi_sweeps_noop_on_diagonal():
    work = np.diag([3.0, 1.0, 2.0])
    v = np.eye(3)
    assert jacobi_sweeps(work, v, 1e-12) == (0, 0.0)
    np.testing.assert_array_equal(v, np.eye(3))


def _block_diagonal(rng, sizes):
    n = sum(sizes)
    a = np.zeros((n, n))
    start = 0
    for size in sizes:
        m = rng.standard_normal((size, size))
        a[start:start + size, start:start + size] = 0.5 * (m + m.T)
        start += size
    return a


@pytest.mark.parametrize("n", [2, 3, 5, 48, 80])
def test_jacobi_matches_numpy_eigh(n):
    rng = np.random.default_rng(300 + n)
    m = rng.standard_normal((n, n))
    dense = 0.5 * (m + m.T)
    split = n // 3 + 1
    blocks = _block_diagonal(rng, [split, n - split])
    for a in (dense, blocks):
        w, u, sweeps = jacobi_eigh(a)
        scale = np.linalg.norm(a, 2)
        assert sweeps <= MAX_SWEEPS
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a)[::-1], rtol=0, atol=1e-12 * scale)
        assert np.abs(u.T @ u - np.eye(n)).max() < 1e-13
        assert np.abs(u @ np.diag(w) @ u.T - a).max() < 1e-12 * scale
    # pairs across the two blocks have a[p, q] == 0 and are never rotated,
    # so every eigenvector lives in exactly one block
    w, u, _ = jacobi_eigh(blocks)
    in_first = np.abs(u[:split]).sum(axis=0) > 0
    in_second = np.abs(u[split:]).sum(axis=0) > 0
    assert not (in_first & in_second).any()
    assert in_first.sum() == split


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
def test_jacobi_rejects_non_finite_input(bad, where):
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    if where == "diagonal":
        a[0, 0] = bad
    else:
        a[0, 1] = a[1, 0] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        jacobi_eigh(a)


def test_jacobi_rejects_empty_matrix():
    with pytest.raises(ValueError, match="eigensolve: matrix is empty"):
        jacobi_eigh(np.zeros((0, 0)))


def test_jacobi_reports_non_convergence(monkeypatch):
    m = np.random.default_rng(6).standard_normal((6, 6))
    a = 0.5 * (m + m.T)
    target = 1e-12 * np.linalg.norm(a, "fro")
    monkeypatch.setattr(eigensolve, "MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="did not converge in 1 sweeps") as exc:
        jacobi_eigh(a)
    assert f"target {target:.3e}" in str(exc.value)


# -- decomposition and conventions ---------------------------------------------


def test_jacobi_identity_is_a_fixpoint():
    w, u, sweeps = jacobi_eigh(np.eye(3))
    np.testing.assert_array_equal(w, np.ones(3))
    np.testing.assert_array_equal(u, np.eye(3))
    assert sweeps == 0


def test_jacobi_known_2x2():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    w, u, _ = jacobi_eigh(a)
    np.testing.assert_allclose(sorted(w), [1.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(u @ np.diag(w) @ u.T, a, atol=1e-12)


def test_jacobi_input_validation():
    with pytest.raises(ValueError, match="square"):
        jacobi_eigh(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigh(np.array([[1.0, 0.5], [0.4, 1.0]]))


def test_jacobi_random_sweep_against_charpoly_oracle():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        a = oracles.random_symmetric_unit_diag(rng, n)
        w, u, sweeps = jacobi_eigh(a)
        assert sweeps <= MAX_SWEEPS
        assert np.abs(u @ np.diag(w) @ u.T - a).max() < 1e-8
        ref = oracles.charpoly_eigenvalues(a, tol=1e-10)
        np.testing.assert_allclose(np.sort(w)[::-1], ref, atol=1e-7)


def test_eigen_fixture_values(eigen_fixture, corr_fixture):
    np.testing.assert_allclose(eigen_fixture.eigenvalues, REF_EIGENVALUES, atol=1e-12)
    ref = oracles.charpoly_eigenvalues(corr_fixture.r, tol=1e-10)
    np.testing.assert_allclose(eigen_fixture.eigenvalues, ref, atol=1e-7)


def test_eigen_fixture_structure(eigen_fixture, corr_fixture):
    e = eigen_fixture
    n = e.n
    assert np.abs(e.U.T @ e.U - np.eye(n)).max() < 1e-10
    assert e.eigenvalues.sum() == pytest.approx(n, abs=1e-9)
    assert np.abs(e.U @ np.diag(e.eigenvalues) @ e.U.T - corr_fixture.r).max() < 1e-8
    off = e.C_prime - np.diag(np.diag(e.C_prime))
    assert np.abs(off).max() < 1e-9
    assert abs(abs(np.linalg.det(e.R)) - 1.0) < 1e-9
    np.testing.assert_array_equal(e.R, e.U.T)


def test_eigen_fixture_vectors_match_quoted_table(eigen_fixture):
    got = sign_normalize_columns(eigen_fixture.U)
    ref = sign_normalize_columns(REF_EIGENVECTORS_3DP)
    # quoted at 3 decimals; one entry rounds the other way at raw +/-0.002
    assert np.abs(np.round(got, 3) - ref).max() <= 0.002


def test_descending_order_and_sign_convention():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        e = eigen_symmetric(corr_of(oracles.random_correlation(rng, n)))
        assert all(a >= b - 1e-9 for a, b in zip(e.eigenvalues, e.eigenvalues[1:]))
        for j in range(n):
            col = e.U[:, j]
            big = np.nonzero(np.abs(col) > 1e-9)[0]
            assert col[big[0]] > 0.0


def test_tie_groups_order_by_leading_component():
    # eigenvalue 1 is triple; columns must come out as the identity
    e = eigen_symmetric(corr_of(np.eye(3)))
    np.testing.assert_array_equal(e.U, np.eye(3))
    np.testing.assert_array_equal(e.eigenvalues, np.ones(3))


def test_psd_clamp_accepts_rank_deficiency():
    dup = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
    e = eigen_symmetric(corr_of(dup))
    assert e.eigenvalues.min() == 0.0
    assert e.eigenvalues.sum() == pytest.approx(3.0, abs=1e-9)


def test_indefinite_matrix_is_rejected():
    bad = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
    assert np.linalg.eigvalsh(bad).min() < PSD_CLAMP
    with pytest.raises(DataError, match="negative"):
        eigen_symmetric(corr_of(bad))


def test_rotation_from_eigenvectors_rejects_skew():
    u = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(ValueError, match="orthonormal"):
        rotation_from_eigenvectors(u)


def test_decomposition_is_deterministic():
    rng = np.random.default_rng(55)
    a = oracles.random_correlation(rng, 5)
    e1 = eigen_symmetric(corr_of(a))
    e2 = eigen_symmetric(corr_of(a.copy()))
    assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
    assert np.array_equal(e1.U, e2.U)
