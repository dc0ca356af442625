"""Rotation-tensor algebra and the virtual-representation identity grid."""

import numpy as np
import pytest

from pcageom.corrstats import CorrelationMatrix
from pcageom.eigensolve import eigen_symmetric
from pcageom.fixtures import fixture_path
from pcageom.report import run_analysis
from pcageom.tensorops import (
    RELATION_TOLERANCE,
    build_virtual,
    transform_rank2,
    transform_vector,
    verify_relations,
)
from conftest import REF_COMPONENT_LENGTHS, REF_SQRT_3DP
import oracles


def corr_of(r, n_obs=10):
    r = np.asarray(r, dtype=np.float64)
    names = [f"v{i + 1}" for i in range(r.shape[0])]
    return CorrelationMatrix(r=r, n_obs=n_obs, names=names)


def test_virtual_matrices_on_fixture(virtual_fixture, eigen_fixture, corr_fixture):
    vr = virtual_fixture
    c = corr_fixture.r
    w = eigen_fixture.eigenvalues
    assert np.abs(vr.A - vr.A.T).max() < 1e-12
    assert np.abs(vr.A @ vr.A - c).max() < 1e-8
    # A' rows are scaled eigenvectors: squared row norms recover eigenvalues
    np.testing.assert_allclose((vr.A_prime**2).sum(axis=1), w, atol=1e-12)
    np.testing.assert_allclose((vr.A_prime**2).sum(axis=0), np.ones(4), atol=1e-12)
    np.testing.assert_array_equal(vr.P, vr.A_prime.T)
    np.testing.assert_allclose(vr.P_prime, eigen_fixture.R @ vr.P, atol=1e-15)
    np.testing.assert_allclose(np.diag(vr.P_prime), np.sqrt(w), atol=1e-12)
    np.testing.assert_allclose(np.diag(vr.P_prime), REF_COMPONENT_LENGTHS, atol=1e-12)


def test_symmetric_square_root_matches_quoted_matrix(virtual_fixture):
    assert np.abs(np.round(virtual_fixture.A, 3) - REF_SQRT_3DP).max() <= 0.002


def test_relation_grid_on_fixture(virtual_fixture, eigen_fixture, corr_fixture):
    checks = verify_relations(virtual_fixture, eigen_fixture, corr_fixture)
    assert len(checks) == 22
    assert all(c.passed for c in checks)
    assert max(c.max_abs_dev for c in checks) < 1e-12
    names = [c.relation for c in checks]
    assert len(set(names)) == 22


def test_relation_check_json_shape():
    # the report writes each relation check as one record of its three fields
    relations = run_analysis(fixture_path("iris_corr.json"))["relations"]
    assert len(relations) == 22
    assert all(set(doc) == {"relation", "pass", "max_abs_dev"} for doc in relations)
    assert all(doc["pass"] is True for doc in relations)


def test_relation_grid_random_sweep():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        corr = corr_of(oracles.random_correlation(rng, n))
        eig = eigen_symmetric(corr)
        checks = verify_relations(build_virtual(eig), eig, corr)
        assert all(c.passed for c in checks)
        worst = max(worst, max(c.max_abs_dev for c in checks))
    assert worst < RELATION_TOLERANCE


def test_relation_grid_survives_fixture_perturbation(corr_fixture):
    # nudging one correlation keeps the matrix PSD; the grid must still close
    for delta in (0.2, -0.2):
        r = corr_fixture.r.copy()
        r[0, 1] += delta
        r[1, 0] += delta
        corr = corr_of(r, n_obs=150)
        eig = eigen_symmetric(corr)
        checks = verify_relations(build_virtual(eig), eig, corr)
        assert all(c.passed for c in checks)


def test_transform_vector_round_trip(eigen_fixture):
    rng = np.random.default_rng(3)
    r = eigen_fixture.R
    for _ in range(20):
        v = rng.standard_normal(4)
        v_new = transform_vector(v, r)
        assert np.abs(transform_vector(v_new, r, "to_old") - v).max() < 1e-12
        assert abs(np.linalg.norm(v_new) - np.linalg.norm(v)) < 1e-12


def test_transform_rank2_round_trip(eigen_fixture, corr_fixture):
    r = eigen_fixture.R
    c = corr_fixture.r
    c_new = transform_rank2(c, r)
    np.testing.assert_allclose(c_new, np.diag(eigen_fixture.eigenvalues), atol=1e-12)
    assert np.abs(transform_rank2(c_new, r, "to_old") - c).max() < 1e-12
    assert abs(np.trace(c_new) - np.trace(c)) < 1e-9


def test_transform_rejects_non_rotation():
    skew = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not orthogonal"):
        transform_vector(np.ones(2), skew)
    with pytest.raises(ValueError, match="dimension mismatch"):
        transform_vector(np.ones(3), np.eye(2))
    with pytest.raises(ValueError, match="unknown direction"):
        transform_vector(np.ones(2), np.eye(2), "sideways")


def test_reflection_is_not_a_rotation_operand():
    # det -1 orthogonal matrices still transform tensors; the check is
    # orthogonality, not orientation, matching how R itself may reflect
    refl = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = transform_vector(np.array([2.0, 5.0]), refl)
    np.testing.assert_array_equal(out, [5.0, 2.0])
