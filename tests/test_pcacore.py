"""Scores, variance accounting, explanation tables, and component selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcageom.corrstats import CorrelationMatrix, correlation_matrix
from pcageom.eigensolve import eigen_symmetric
from pcageom.pcacore import (
    CRITERIA,
    explanation_table,
    project_scores,
    select_components,
    variance_explained,
)
from pcageom.tensorops import build_virtual

from conftest import (
    REF_CUMULATIVE_PERCENT_K2_2DP,
    REF_MIN_CUMULATIVE_BY_K,
    REF_PERCENT_2DP,
    REF_RECONSTRUCTION_K2,
)
import oracles


def corr_of(r, n_obs=10):
    r = np.asarray(r, dtype=np.float64)
    names = [f"v{i + 1}" for i in range(r.shape[0])]
    return CorrelationMatrix(r=r, n_obs=n_obs, names=names)


# -- variance accounting ------------------------------------------------


def test_variance_explained_fixture(eigen_fixture):
    ve = variance_explained(eigen_fixture.eigenvalues)
    n = eigen_fixture.n
    np.testing.assert_array_equal(ve.percent, ve.eigenvalues / n * 100.0)
    np.testing.assert_allclose(ve.percent, REF_PERCENT_2DP, atol=0.03)
    assert ve.cumulative_percent[-1] == pytest.approx(100.0, abs=1e-9)
    assert ve.cumulative_percent[1] == pytest.approx(REF_CUMULATIVE_PERCENT_K2_2DP, abs=0.03)
    assert all(a <= b + 1e-12 for a, b in zip(ve.cumulative_percent, ve.cumulative_percent[1:]))


def test_variance_explained_validation():
    with pytest.raises(ValueError):
        variance_explained(np.array([2.0, -0.5]))
    with pytest.raises(ValueError):
        variance_explained(np.array([0.5, 2.0]))


# -- explanation table ---------------------------------------------------


def test_full_table_identities(table_full, eigen_fixture):
    assert table_full.loading.shape == table_full.determination.shape == (4, 4)
    np.testing.assert_allclose(table_full.row_sums, eigen_fixture.eigenvalues, atol=1e-9)
    np.testing.assert_allclose(table_full.column_sums, np.ones(4), atol=1e-9)
    np.testing.assert_array_equal(table_full.determination, table_full.loading**2)
    assert table_full.pc_labels == ["pc1", "pc2", "pc3", "pc4"]


def test_truncated_table_reconstruction_levels(table_full):
    first2 = table_full.determination[:2]
    assert first2.shape == (2, 4)
    np.testing.assert_allclose(first2.sum(axis=0), REF_RECONSTRUCTION_K2, atol=1e-12)
    # row averages of a determination table are variance fractions
    np.testing.assert_allclose(table_full.row_averages[:2], table_full.row_sums[:2] / 4.0, atol=1e-15)


def test_table_argument_validation(virtual_fixture):
    with pytest.raises(ValueError, match="variable names"):
        explanation_table(virtual_fixture, ["only one"])


def test_loading_is_score_variable_correlation(iris_standardized):
    corr = correlation_matrix(iris_standardized)
    eig = eigen_symmetric(corr)
    expl = explanation_table(build_virtual(eig), corr.names)
    scores = project_scores(iris_standardized, eig.R).scores
    z = iris_standardized.values
    for i in range(4):
        for j in range(4):
            r = np.corrcoef(scores[:, i], z[:, j])[0, 1]
            assert abs(r - expl.loading[i, j]) < 1e-8


def test_loading_consistency_on_random_data():
    rng = np.random.default_rng(77)
    from pcageom.ingest import DataMatrix, standardize

    x = rng.standard_normal((60, 5)) @ rng.standard_normal((5, 5))
    data = DataMatrix(values=x, column_names=[f"v{j}" for j in range(5)])
    z = standardize(data, "population")
    corr = correlation_matrix(z)
    eig = eigen_symmetric(corr)
    expl = explanation_table(build_virtual(eig))
    scores = project_scores(z, eig.R).scores
    for i in range(5):
        if eig.eigenvalues[i] < 1e-8:
            continue  # correlation with a zero-variance score is undefined
        for j in range(5):
            r = np.corrcoef(scores[:, i], z.values[:, j])[0, 1]
            assert abs(r - expl.loading[i, j]) < 1e-8


# -- scores ---------------------------------------------------------------


def test_scores_shape_and_variance(iris_standardized):
    corr = correlation_matrix(iris_standardized)
    eig = eigen_symmetric(corr)
    sm = project_scores(iris_standardized, eig.R)
    assert sm.scores.shape == (150, 4)
    assert sm.component_names == ["pc1", "pc2", "pc3", "pc4"]
    # population-standardized input, sample-variance summaries
    sample_var = sm.scores.var(axis=0, ddof=1)
    np.testing.assert_allclose(sample_var, eig.eigenvalues * 150.0 / 149.0, atol=1e-8)
    assert sample_var.sum() == pytest.approx(4.0 * 150.0 / 149.0, abs=1e-9)
    for s, v in zip(sm.summaries, sample_var):
        assert s.variance == pytest.approx(v, abs=1e-12)


# -- selection ------------------------------------------------------------


def test_selection_on_fixture(eigen_fixture, table_full):
    w = eigen_fixture.eigenvalues
    assert select_components(w, table_full, "percentage", 0.95).k == 2
    assert select_components(w, table_full, "eigenvalue_ge_1").k == 1
    s = select_components(w, table_full, "scree")
    assert s.k == 1 and s.detail["no_elbow"] is False
    assert select_components(w, table_full, "per_variable", 0.80).k == 2
    assert select_components(w, table_full, "per_variable", 0.90).k == 2
    assert select_components(w, table_full, "per_variable", 0.93).k == 3
    got = select_components(w, table_full, "per_variable", 0.80).detail["min_cumulative_by_k"]
    np.testing.assert_allclose(got, REF_MIN_CUMULATIVE_BY_K, atol=1e-12)


def test_selection_detail_keys(eigen_fixture, table_full):
    w = eigen_fixture.eigenvalues
    assert set(select_components(w, table_full, "percentage", 0.9).detail) == {
        "threshold",
        "cumulative_fraction",
    }
    assert set(select_components(w, table_full, "eigenvalue_ge_1").detail) == {"eigenvalues_ge_1"}
    assert set(select_components(w, table_full, "scree").detail) == {
        "second_differences",
        "no_elbow",
    }
    d = select_components(w, table_full, "per_variable", 0.8).detail
    assert set(d) == {"threshold", "min_cumulative_by_k", "per_variable_cumulative_at_k"}
    assert set(d["per_variable_cumulative_at_k"]) == set(table_full.variable_names)


def test_selection_validation(eigen_fixture, table_full):
    w = eigen_fixture.eigenvalues
    with pytest.raises(ValueError, match="unknown criterion"):
        select_components(w, table_full, "kaiser")
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="threshold"):
            select_components(w, table_full, "percentage", bad)


def test_flat_spectrum_has_no_elbow(table_full):
    s = select_components(np.ones(4), table_full, "scree")
    assert s.k == 1 and s.detail["no_elbow"] is True


def test_per_variable_dominates_percentage():
    # min over columns can never exceed the column average, so the
    # per-variable criterion is at least as demanding
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(3, 7))
        corr = corr_of(oracles.random_correlation(rng, n))
        eig = eigen_symmetric(corr)
        expl = explanation_table(build_virtual(eig))
        for tau in (0.5, 0.7, 0.8, 0.9, 0.95, 0.999):
            k_pct = select_components(eig.eigenvalues, expl, "percentage", tau).k
            k_pv = select_components(eig.eigenvalues, expl, "per_variable", tau).k
            assert k_pv >= k_pct


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), tau=st.floats(0.05, 1.0))
def test_full_table_invariants_on_random_correlations(seed, n, tau):
    corr = corr_of(oracles.random_correlation(np.random.default_rng(seed), n), n_obs=100)
    eig = eigen_symmetric(corr)
    expl = explanation_table(build_virtual(eig))
    assert np.abs(expl.column_sums - 1.0).max() <= 1e-10
    assert np.abs(expl.row_sums - eig.eigenvalues).max() <= 1e-12
    k_pct = select_components(eig.eigenvalues, expl, "percentage", tau).k
    assert select_components(eig.eigenvalues, expl, "per_variable", tau).k >= k_pct


def test_selection_is_monotone_in_threshold():
    rng = np.random.default_rng(32)
    taus = np.linspace(0.05, 1.0, 20)
    for _ in range(30):
        n = int(rng.integers(3, 7))
        corr = corr_of(oracles.random_correlation(rng, n))
        eig = eigen_symmetric(corr)
        expl = explanation_table(build_virtual(eig))
        for crit in ("percentage", "per_variable"):
            ks = [select_components(eig.eigenvalues, expl, crit, float(t)).k for t in taus]
            assert all(a <= b for a, b in zip(ks, ks[1:]))


def test_criteria_tuple_is_the_public_contract():
    assert CRITERIA == ("percentage", "scree", "eigenvalue_ge_1", "per_variable")
