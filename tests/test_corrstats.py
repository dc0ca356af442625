"""Correlation geometry, significance, and the correlation-JSON loader.

The t-distribution CDF is cross-checked against an adaptive-quadrature
oracle that never touches the incomplete beta function.  The matrix
builders are checked against NumPy's ``corrcoef`` and, entry by entry,
against their scalar counterparts; the batched significance matrix is
compared bit for bit with the scalar continued fraction frozen in
``oracles``.
"""

import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pcageom.corrstats import (
    _SERIES_FROM,
    MAX_N_OBS,
    CorrelationMatrix,
    _ln_gamma_ratio,
    angle_deg,
    angle_matrix,
    betainc_reg,
    correlation,
    correlation_matrix,
    determination_matrix,
    load_correlation_json,
    significance,
    significance_matrix,
    student_t_cdf,
)
from pcageom.errors import DataError
from pcageom.ingest import DataMatrix, StandardizedMatrix, standardize

from conftest import REF_ANGLES_3DP, REF_NAMES, REF_P_VALUE_WEAK, offset_columns
import oracles


def test_correlation_matches_numpy():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        assert correlation(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)


def test_correlation_perfect_pairs_are_clamped():
    x = np.arange(10.0)
    assert correlation(x, 3.0 * x + 1.0) == 1.0
    assert correlation(x, -x) == -1.0


def test_correlation_affine_invariance():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(40)
    y = rng.standard_normal(40)
    r = correlation(x, y)
    for a, b in ((2.5, -3.0), (-0.7, 11.0), (1e-6, 0.0)):
        assert correlation(a * x + b, y) == pytest.approx(math.copysign(1.0, a) * r, abs=1e-12)


def test_correlation_input_errors():
    with pytest.raises(DataError, match="at least 3"):
        correlation(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    with pytest.raises(DataError, match="constant"):
        correlation(np.full(5, 2.0), np.arange(5.0))


def test_correlation_rejects_nan():
    y = np.array([1.0, 3.0, np.nan, 2.0, 5.0])
    with pytest.raises(ValueError, match="NaN"):
        correlation(np.arange(5.0), y)


def test_correlation_matrix_structure(iris_standardized):
    c = correlation_matrix(iris_standardized)
    r = c.r
    # mirrored from the upper triangle, so symmetry is exact
    assert np.array_equal(r, r.T)
    assert np.array_equal(np.diag(r), np.ones(4))
    np.testing.assert_allclose(r, np.corrcoef(iris_standardized.values.T), atol=1e-12)
    assert c.n_obs == 150


@st.composite
def dependent_columns(draw):
    """Columns with exact copies, sign flips, affine images and sums of others."""
    rows = draw(st.integers(3, 40))
    base = draw(hnp.arrays(np.float64, (rows, draw(st.integers(1, 4))),
                           elements=st.integers(-50, 50).map(float)))
    cols = list(base.T)
    for kind, i, j, a in draw(st.lists(st.tuples(st.sampled_from(["affine", "sum"]),
                                                 st.integers(0, 99), st.integers(0, 99),
                                                 st.sampled_from([-3.0, -1.0, 0.5, 1.0, 7.0])),
                                       max_size=4)):
        x, y = cols[i % len(cols)], cols[j % len(cols)]
        cols.append(a * x + 2.0 if kind == "affine" else x + a * y)
    values = np.column_stack(cols)
    assume(np.ptp(values, axis=0).min() > 0.0)
    return values


@settings(max_examples=200, deadline=None)
@given(dependent_columns())
@example(np.column_stack([np.arange(5.0), 3.0 * np.arange(5.0) + 1.0, -np.arange(5.0)]))
@example(np.array([[1.0, 2.0, 3.0], [2.0, 0.0, 2.0], [4.0, 1.0, 5.0], [0.0, 3.0, 3.0]]))
def test_correlation_matrix_matches_corrcoef(values):
    n = values.shape[1]
    z = StandardizedMatrix(values=values, column_names=[f"v{i}" for i in range(n)], summaries=[])
    r = correlation_matrix(z).r
    np.testing.assert_allclose(r, np.corrcoef(values, rowvar=False), rtol=0.0, atol=1e-12)
    assert np.array_equal(r, r.T)
    assert np.array_equal(np.diag(r), np.ones(n))
    assert -1.0 <= r.min() and r.max() <= 1.0


def test_correlation_matrix_names_zero_variance_column():
    values = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    z = StandardizedMatrix(values=values, column_names=["a", "flat"], summaries=[])
    with pytest.raises(DataError, match="'flat' has zero variance"):
        correlation_matrix(z)


@settings(max_examples=300, deadline=None)
@given(offset_columns(), st.booleans())
@example(np.array([[-0.0, 1.0], [-0.0, 2.0], [-0.0, 4.0]]), False)
@example(np.array([[1e8, 1.0], [1e8 + 1.0, 2.0], [1e8 + 3.0, 2.0]]), False)
@example(np.random.default_rng(3).standard_normal((2000, 6)) * 1e-3 + 1e8, False)
@example(np.random.default_rng(4).standard_normal((2000, 6)), True)
def test_correlation_matrix_matches_the_expression_bitwise(values, standardized):
    """Norms from the centered columns squared in place, after the Gram
    product, give the bits of the expressions they replaced, and the
    same zero-variance error; raw and standardized columns alike."""
    names = [f"v{j}" for j in range(values.shape[1])]
    if standardized:
        data = DataMatrix(values=values, column_names=names)
        try:
            z = standardize(data)
        except DataError:
            return
    else:
        z = StandardizedMatrix(values=values, column_names=names, summaries=[])
    try:
        expected = oracles.expression_correlation(z)
    except DataError as exc:
        with pytest.raises(DataError, match=re.escape(str(exc))):
            correlation_matrix(z)
        return
    r = correlation_matrix(z).r
    assert r.tobytes() == expected.tobytes()


def test_angle_matrix_matches_angle_deg():
    rng = np.random.default_rng(5)
    special = [1.0, -1.0, 1.0 + 1e-16, -1.0 - 1e-16, np.nextafter(1.0, 2.0),
               np.nextafter(-1.0, -2.0), 0.0, -0.0, 0.5, -0.5]
    r = np.concatenate([special, rng.uniform(-1.0, 1.0, 26)]).reshape(6, 6)
    got = angle_matrix(CorrelationMatrix(r=r, n_obs=10, names=list("abcdef")))
    want = np.array([[angle_deg(float(v)) for v in row] for row in r])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    assert got[0, 0] == 0.0 and got[0, 1] == 180.0


def test_significance_matrix_is_the_scalar_test_mirrored(corr_fixture):
    p = significance_matrix(corr_fixture)
    for i in range(corr_fixture.n):
        for j in range(corr_fixture.n):
            want = 0.0 if i == j else significance(float(corr_fixture.r[i, j]), 150)
            assert p[i, j] == want


SPECIAL_R = [0.0, -0.0, 1.0, -1.0, 1e-9, -1e-9]


@st.composite
def significance_cases(draw):
    """Correlation matrices with exact zeros and ones, tiny coefficients and
    values of x = 1 - r^2 on both sides of the branch point (a+1)/(a+b+2)."""
    n = draw(st.integers(2, 30))
    n_obs = draw(st.integers(3, 10**6))
    a, b = (n_obs - 2) / 2.0, 0.5
    r_branch = math.sqrt(1.0 - (a + 1.0) / (a + b + 2.0))
    near_branch = st.builds(lambda f, s: min(1.0, s * f * r_branch),
                            st.floats(0.9, 1.1), st.sampled_from([1.0, -1.0]))
    m = n * (n - 1) // 2
    upper = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, m)
    injected = draw(st.lists(st.tuples(st.integers(0, m - 1),
                                       st.one_of(st.sampled_from(SPECIAL_R), near_branch)),
                             max_size=12))
    for k, v in injected:
        upper[k] = v
    r = np.eye(n)
    iu = np.triu_indices(n, 1)
    r[iu] = upper
    r.T[iu] = upper
    return CorrelationMatrix(r=r, n_obs=n_obs, names=[f"v{i}" for i in range(n)])


def scalar_significance_matrix(c):
    want = np.zeros((c.n, c.n))
    for i in range(c.n):
        for j in range(i + 1, c.n):
            want[i, j] = want[j, i] = oracles.reference_significance(float(c.r[i, j]), c.n_obs)
    return want


@settings(max_examples=150, deadline=None)
@given(significance_cases())
def test_significance_matrix_is_bitwise_the_scalar_fraction(c):
    assert significance_matrix(c).tobytes() == scalar_significance_matrix(c).tobytes()


@pytest.mark.parametrize("n", [80, 160])
def test_significance_matrix_is_bitwise_the_scalar_fraction_at_size(n):
    r = oracles.random_correlation(np.random.default_rng(n), n)
    c = CorrelationMatrix(r=r, n_obs=500, names=[f"v{i}" for i in range(n)])
    assert significance_matrix(c).tobytes() == scalar_significance_matrix(c).tobytes()


def test_significance_matrix_checks_pairs_in_row_major_order():
    r = np.eye(3)
    r[0, 2] = r[2, 0] = 1.5
    r[1, 2] = r[2, 1] = math.nan
    c = CorrelationMatrix(r=r, n_obs=10, names=list("abc"))
    with pytest.raises(ValueError, match=r"correlation 1\.5 outside \[-1, 1\]"):
        significance_matrix(c)
    r[0, 1] = r[1, 0] = math.nan
    with pytest.raises(ValueError, match="NaN correlation"):
        significance_matrix(c)
    c.n_obs = 2
    with pytest.raises(DataError, match="at least 3"):
        significance_matrix(c)


def mpmath_significance(x: float, n_obs: int) -> float:
    """I_x((n_obs - 2)/2, 1/2) at 50 digits."""
    with mpmath.workdps(50):
        return float(mpmath.betainc((n_obs - 2) / mpmath.mpf(2), mpmath.mpf(1) / 2, 0, x,
                                    regularized=True))


@st.composite
def accuracy_cases(draw):
    """``n_obs`` log-uniform over 3..MAX_N_OBS, and r near the branch point
    x = (a+1)/(a+b+2) or with a t statistic log-uniform over [1e-6, 30],
    so that the p-value stays above 1e-200."""
    n_obs = min(MAX_N_OBS, max(3, round(10 ** draw(st.floats(math.log10(3), math.log10(MAX_N_OBS))))))
    a, b = (n_obs - 2) / 2.0, 0.5
    r_branch = math.sqrt(1.0 - (a + 1.0) / (a + b + 2.0))
    r = draw(st.floats(0.9, 1.1).map(lambda f: min(1.0, f * r_branch))
             | st.floats(-6.0, math.log10(30.0)).map(lambda e: 10.0**e / math.sqrt(n_obs - 2 + 100.0**e)))
    return r * draw(st.sampled_from([1.0, -1.0])), n_obs


@settings(max_examples=200, deadline=None)
@given(accuracy_cases())
@example((math.sqrt(1.0 - (MAX_N_OBS / 2.0) / (MAX_N_OBS / 2.0 + 1.5)), MAX_N_OBS))
@example((30.0 / math.sqrt(MAX_N_OBS - 2 + 900.0), MAX_N_OBS))
@example((0.5, 3))
# found by this test: math.lgamma's difference was 1.1e-9 and 1.5e-9 off
@example((0.0025121346566075536, 475371))
@example((0.0018182950268491563, 907384))
def test_significance_is_accurate_up_to_the_limit(case):
    # the reference is taken at the double x = 1 - r^2 that significance
    # evaluates: it measures the function, not the rounding of x
    r, n_obs = case
    want = mpmath_significance(max(0.0, 1.0 - r * r), n_obs)
    assert abs(significance(r, n_obs) - want) <= 1e-8 * want, (r, n_obs, want)


@pytest.mark.parametrize("a", [_SERIES_FROM, 40_000.0, 237_684.5, 453_691.0, (MAX_N_OBS - 2) / 2.0, 1e9])
@pytest.mark.parametrize("b", [0.5, 1.0, 0.25])
def test_ln_gamma_ratio_series_is_exact_to_rounding(a, b):
    with mpmath.workdps(40):
        want = float(mpmath.loggamma(a + b) - mpmath.loggamma(a))
    assert abs(_ln_gamma_ratio(a, b) - want) <= 4 * math.ulp(want)


@pytest.mark.parametrize("n_obs", [MAX_N_OBS + 1, 10**8, 2**53])
def test_significance_refuses_more_observations_than_the_limit(n_obs):
    c = CorrelationMatrix(r=np.array([[1.0, 1.2e-8], [1.2e-8, 1.0]]), n_obs=n_obs, names=["a", "b"])
    for call in (lambda: significance(1.2e-8, n_obs), lambda: significance_matrix(c)):
        with pytest.raises(DataError, match="at most 1,000,000 observations"):
            call()


def test_student_t_cdf_basics():
    assert student_t_cdf(0.0, 5.0) == pytest.approx(0.5, abs=1e-15)
    for t in (0.3, 1.7, 6.0):
        for df in (1.0, 5.0, 148.0):
            assert student_t_cdf(-t, df) == pytest.approx(1.0 - student_t_cdf(t, df), abs=1e-12)
    # df=1 is a Cauchy distribution with a closed-form CDF
    for t in (-4.0, -0.5, 0.9, 7.5):
        assert student_t_cdf(t, 1.0) == pytest.approx(0.5 + math.atan(t) / math.pi, abs=1e-12)


def test_student_t_cdf_against_quadrature_oracle():
    for df in (1.0, 5.0, 148.0):
        for t in np.linspace(-10.0, 10.0, 41):
            assert student_t_cdf(float(t), df) == pytest.approx(
                oracles.t_cdf(float(t), df), abs=1e-8
            )


def test_significance_endpoints_and_monotonicity():
    assert significance(0.0, 150) == pytest.approx(1.0, abs=1e-15)
    assert significance(1.0, 150) == 0.0
    assert significance(-1.0, 150) == 0.0
    grid = [significance(r, 150) for r in np.linspace(0.0, 0.999, 200)]
    assert all(a >= b for a, b in zip(grid, grid[1:]))
    assert significance(-0.4, 150) == significance(0.4, 150)


def test_significance_weak_pair_value():
    assert significance(-0.063, 150) == pytest.approx(REF_P_VALUE_WEAK, abs=1e-12)


def test_significance_matches_t_test_oracle():
    df = 148.0
    for r in (-0.9, -0.3, -0.063, 0.1, 0.5, 0.99):
        t = r * math.sqrt(df / (1.0 - r * r))
        two_sided = 2.0 * (1.0 - oracles.t_cdf(abs(t), df))
        assert significance(r, 150) == pytest.approx(two_sided, abs=1e-8)


def test_significance_needs_three_observations():
    with pytest.raises(DataError, match="at least 3"):
        significance(0.5, 2)


def test_significance_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        significance(math.nan, 10)


def test_betainc_reg_closed_forms():
    for x in np.linspace(0.0, 1.0, 21):
        assert betainc_reg(1.0, 1.0, float(x)) == pytest.approx(x, abs=1e-12)
        want = 2.0 / math.pi * math.asin(math.sqrt(x))
        assert betainc_reg(0.5, 0.5, float(x)) == pytest.approx(want, abs=1e-12)


def test_betainc_reg_endpoints_and_symmetry():
    assert betainc_reg(74.0, 0.5, 0.0) == 0.0
    assert betainc_reg(74.0, 0.5, 1.0) == 1.0
    for x in (0.001, 0.25, 0.7, 0.999):
        a, b = 3.5, 0.5
        assert betainc_reg(a, b, x) == pytest.approx(1.0 - betainc_reg(b, a, 1.0 - x), abs=1e-12)


def test_betainc_reg_monotone_in_x():
    xs = np.linspace(0.0, 1.0, 200)
    vals = [betainc_reg(74.0, 0.5, float(x)) for x in xs]
    assert all(u <= v + 1e-15 for u, v in zip(vals, vals[1:]))


def test_betainc_reg_array_is_the_scalar_per_entry():
    x = np.array([0.0, 1e-300, 0.2, 0.5, 0.97, 0.99, 1.0 - 1e-16, 1.0, -3.0, math.inf])
    for a, b in ((74.0, 0.5), (0.5, 74.0), (2.0, 3.0), (1, 1)):
        got = betainc_reg(a, b, x)
        assert got.shape == x.shape
        want = [oracles.reference_betainc_reg(a, b, float(v)) for v in x]
        assert got.tobytes() == np.array(want).tobytes()
        assert all(type(betainc_reg(a, b, float(v))) is float for v in x)
    assert betainc_reg(2.0, 0.5, np.array([])).shape == (0,)


@pytest.mark.parametrize("args, message", [
    ((2.0, 0.5, math.nan), "x is NaN"),
    ((2.0, 0.5, np.array([0.3, math.nan])), "x is NaN"),
    ((-1.0, 0.5, 0.3), "finite positive a, got -1.0"),
    ((0.0, 0.5, 0.3), "finite positive a"),
    ((math.inf, 0.5, 0.3), "finite positive a"),
    ((2.0, math.nan, 0.3), "finite positive b"),
    ((2.0, -0.5, 0.3), "finite positive b"),
    ((2.0, 0.5, np.full((2, 2), 0.3)), "scalar or 1-D x"),
])
def test_betainc_reg_rejects_invalid_arguments(args, message):
    with pytest.raises(ValueError, match=message):
        betainc_reg(*args)


@pytest.mark.parametrize("t, df, message", [
    (math.nan, 5.0, "t is NaN"),
    (1.0, math.inf, "df must be finite"),
    (1.0, math.nan, "df must be finite"),
    (1.0, -math.inf, "df must be finite"),
    (1.0, 0.0, "must be positive"),
])
def test_student_t_cdf_rejects_invalid_arguments(t, df, message):
    with pytest.raises(ValueError, match=message):
        student_t_cdf(t, df)


def test_angle_deg():
    assert angle_deg(1.0) == pytest.approx(0.0, abs=1e-12)
    assert angle_deg(0.0) == pytest.approx(90.0, abs=1e-12)
    assert angle_deg(-1.0) == pytest.approx(180.0, abs=1e-12)
    assert math.isfinite(angle_deg(1.0 + 1e-16))
    for r in np.linspace(-1.0, 1.0, 101):
        assert angle_deg(float(r)) == pytest.approx(math.degrees(math.acos(r)), abs=1e-12)


def test_angle_deg_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        angle_deg(math.nan)


def test_angles_of_quoted_pairs():
    for r, deg in REF_ANGLES_3DP:
        assert angle_deg(r) == pytest.approx(deg, abs=0.05)


def test_derived_matrices_on_fixture(corr_fixture):
    d = determination_matrix(corr_fixture)
    np.testing.assert_allclose(d, corr_fixture.r**2, atol=1e-15)
    a = angle_matrix(corr_fixture)
    assert np.allclose(np.diag(a), 0.0, atol=1e-12)
    assert a.max() <= 180.0
    p = significance_matrix(corr_fixture)
    assert np.array_equal(np.diag(p), np.zeros(4))
    assert p.min() >= 0.0 and p.max() <= 1.0


def test_load_correlation_json_fixture(corr_fixture):
    assert corr_fixture.names == REF_NAMES
    assert corr_fixture.n_obs == 150
    assert np.array_equal(corr_fixture.r, corr_fixture.r.T)


def _write_doc(tmp_path, doc):
    p = tmp_path / "corr.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


GOOD = {"names": ["a", "b"], "n_obs": 10, "r": [[1.0, 0.5], [0.5, 1.0]]}


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda d: d.pop("r"), "missing keys"),
        (lambda d: d.update(names=["a"]), "at least 2"),
        (lambda d: d.update(names=["a", "a"]), "duplicate"),
        (lambda d: d.update(n_obs=2), "n_obs"),
        (lambda d: d.update(n_obs=MAX_N_OBS + 1), "from 3 to 1,000,000"),
        (lambda d: d.update(r=[[1.0, 0.5]]), "must be 2x2"),
        (lambda d: d.update(r=[[1.0, 0.5], [0.4, 1.0]]), "not symmetric"),
        (lambda d: d.update(r=[[0.9, 0.5], [0.5, 1.0]]), "diagonal"),
        (lambda d: d.update(r=[[1.0, 1.5], [1.5, 1.0]]), r"\[-1, 1\]"),
        (lambda d: d.update(r=[[1.0, "x"], [0.5, 1.0]]), "numeric"),
    ],
)
def test_load_correlation_json_rejects_bad_documents(tmp_path, mangle, message):
    doc = json.loads(json.dumps(GOOD))
    mangle(doc)
    with pytest.raises(DataError, match=message):
        load_correlation_json(_write_doc(tmp_path, doc))


def test_load_correlation_json_rejects_non_json(tmp_path):
    p = tmp_path / "corr.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match="not valid JSON"):
        load_correlation_json(p)
    with pytest.raises(DataError, match="cannot read"):
        load_correlation_json(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"names": ["a", "b"], "n_obs": 10, "r": [[1, 1' + "9" * 400 + '], [0.5, 1]]}',
         "numeric matrix"),
        ('{"names": ["a", "b"], "n_obs": 10, "r": ' + "[" * 100000 + "]" * 100000 + "}",
         "not usable JSON"),
        ('{"names": ["a", "b"], "n_obs": 1' + "0" * 400 + ', "r": [[1, 0.5], [0.5, 1]]}',
         "n_obs"),
        ('{"names": ["a", "b"], "n_obs": 1' + "0" * 5000 + ', "r": [[1, 0.5], [0.5, 1]]}',
         "not usable JSON"),
    ],
    ids=["int-past-float-in-r", "deep-nesting", "int-past-float-n_obs", "int-past-digit-limit"],
)
def test_load_correlation_json_rejects_unrepresentable_numbers(tmp_path, text, message):
    p = tmp_path / "corr.json"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_correlation_json(p)


def test_load_correlation_json_skips_a_utf8_byte_order_mark(tmp_path):
    p = tmp_path / "excel.json"
    p.write_bytes(b"\xef\xbb\xbf" + json.dumps(GOOD).encode("utf-8"))
    corr = load_correlation_json(p)
    assert corr.names == ["a", "b"] and corr.r[0, 1] == 0.5


def test_load_correlation_json_rejects_non_utf8(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"names": ["\xe4", "b"], "n_obs": 10, "r": [[1, 0.5], [0.5, 1]]}')
    with pytest.raises(DataError, match=r"latin1\.json is not valid UTF-8"):
        load_correlation_json(p)
    p.write_bytes(b"\xef")  # the first byte of a byte-order mark, and nothing else
    with pytest.raises(DataError, match="not valid UTF-8: unexpected end of data"):
        load_correlation_json(p)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=20,
)
square = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.floats(-1.5, 1.5) | st.integers(-2, 2), min_size=n,
                                max_size=n), min_size=n, max_size=n))
documents = st.fixed_dictionaries(
    {},
    optional={
        "names": st.lists(st.text(max_size=3), max_size=4) | json_values,
        "n_obs": st.integers(-5, 2**60) | json_values,
        "r": square | json_values,
    },
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=200), st.text(max_size=200),
                 documents.map(lambda d: json.dumps(d)), json_values.map(json.dumps)))
@example(b'{"names": ["\xe4"], "n_obs": 3, "r": []}')
@example('{"names": ["a", "b"], "n_obs": 10, "r": [[1, 1' + "9" * 400 + '], [0.5, 1]]}')
@example('{"names": ["a", "b"], "n_obs": 10, "r": ' + "[" * 100000 + "]" * 100000 + "}")
@example('{"names": ["a", "b"], "n_obs": 1' + "0" * 400 + ', "r": [[1, 0.5], [0.5, 1]]}')
@example(json.dumps(GOOD))
def test_load_correlation_json_loads_or_raises_data_error(tmp_path_factory, content):
    p = tmp_path_factory.getbasetemp() / "doc.json"
    p.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    try:
        c = load_correlation_json(p)
    except DataError:
        return
    assert np.array_equal(c.r, c.r.T) and np.all(np.abs(c.r) <= 1.0)
