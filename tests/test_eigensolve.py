"""Certified eigendecomposition, ordering conventions, and the PSD gate.

Decompositions are checked against eigenvalues recovered independently
by bisecting the characteristic polynomial, larger ones against
``np.linalg.eigvalsh``, and correlation matrices against the spectrum
they were generated with.
"""

import math

import numpy as np
import pytest

from pcageom import eigensolve
from pcageom.corrstats import CorrelationMatrix
from pcageom.eigensolve import (
    PSD_CLAMP,
    eigen_symmetric,
    offdiag_norm,
    symmetric_eigh,
)
from pcageom.errors import ConvergenceError, DataError

from conftest import (
    REF_EIGENVALUES,
    REF_EIGENVECTORS_3DP,
    sign_normalize_columns,
)
import oracles


# eigenvalue 0.7 five times: the basis of that eigenspace is not unique
EQUICORRELATED = np.where(np.eye(6, dtype=bool), 1.0, 0.3)


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


# -- certified eigendecomposition ---------------------------------------------


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
        w, u = symmetric_eigh(a)
        scale = np.linalg.norm(a, 2)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a)[::-1], rtol=0, atol=1e-12 * scale)
        assert np.abs(u.T @ u - np.eye(n)).max() < 1e-13
        assert np.abs(u @ np.diag(w) @ u.T - a).max() < 1e-12 * scale
    # Householder reflectors of a block-diagonal matrix stay inside one block
    # and the zero entry between the blocks splits the tridiagonal problem,
    # so every eigenvector lives in exactly one block
    w, u = symmetric_eigh(blocks)
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
        symmetric_eigh(a)


def test_jacobi_rejects_empty_matrix():
    with pytest.raises(ValueError, match="eigensolve: matrix is empty"):
        symmetric_eigh(np.zeros((0, 0)))


def test_jacobi_reports_non_convergence(monkeypatch):
    # no rounded decomposition meets a zero target: the certificate must fail
    m = np.random.default_rng(6).standard_normal((6, 6))
    a = 0.5 * (m + m.T)
    monkeypatch.setattr(eigensolve, "OFF_TOL_FACTOR", 0.0)
    with pytest.raises(ConvergenceError, match="off-diagonal test") as exc:
        symmetric_eigh(a)
    assert "target 0.000e+00" in str(exc.value)


# -- decomposition and conventions ---------------------------------------------


def test_jacobi_identity_is_a_fixpoint():
    w, u = symmetric_eigh(np.eye(3))
    np.testing.assert_array_equal(w, np.ones(3))
    np.testing.assert_array_equal(u, np.eye(3))


def test_jacobi_known_2x2():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    w, u = symmetric_eigh(a)
    np.testing.assert_allclose(sorted(w), [1.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(u @ np.diag(w) @ u.T, a, atol=1e-12)


def test_jacobi_input_validation():
    with pytest.raises(ValueError, match="square"):
        symmetric_eigh(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_eigh(np.array([[1.0, 0.5], [0.4, 1.0]]))


def test_jacobi_random_sweep_against_charpoly_oracle():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        a = oracles.random_symmetric_unit_diag(rng, n)
        w, u = symmetric_eigh(a)
        assert np.abs(u @ np.diag(w) @ u.T - a).max() < 1e-8
        ref = oracles.charpoly_eigenvalues(a, tol=1e-10)
        np.testing.assert_allclose(np.sort(w)[::-1], ref, atol=1e-7)


@pytest.mark.parametrize("n", [8, 20, 40])
@pytest.mark.parametrize("smallest", [1e-3, 1e-6, 1e-9, 1e-12])
def test_prescribed_spectrum_is_recovered(n, smallest):
    lam = np.geomspace(1.0, smallest, n)
    a = oracles.correlation_with_spectrum(np.random.default_rng(n), lam)
    e = eigen_symmetric(corr_of(a))
    want = lam * (n / lam.sum())
    # distinct eigenvalues far below the tie tolerance stay descending too
    assert np.all(np.diff(e.eigenvalues) <= 0.0)
    np.testing.assert_allclose(e.eigenvalues, want, rtol=0, atol=1e-13)
    assert np.abs(e.U.T @ e.U - np.eye(n)).max() < 1e-13


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
    c_prime = e.R @ corr_fixture.r @ e.R.T
    off = c_prime - np.diag(np.diag(c_prime))
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
    inputs = [oracles.random_correlation(rng, int(rng.integers(2, 7))) for _ in range(200)]
    for a in inputs + [EQUICORRELATED]:
        n = a.shape[0]
        e = eigen_symmetric(corr_of(a))
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
    assert 0.0 <= e.eigenvalues.min() <= 1e-15
    assert e.eigenvalues.sum() == pytest.approx(3.0, abs=1e-9)


def test_indefinite_matrix_is_rejected():
    bad = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
    assert np.linalg.eigvalsh(bad).min() < PSD_CLAMP
    with pytest.raises(DataError, match="negative"):
        eigen_symmetric(corr_of(bad))


def test_decomposition_is_deterministic():
    rng = np.random.default_rng(55)
    for a in (oracles.random_correlation(rng, 5), EQUICORRELATED):
        e1 = eigen_symmetric(corr_of(a))
        e2 = eigen_symmetric(corr_of(a.copy()))
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.U, e2.U)
