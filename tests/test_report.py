"""The analyze pipeline: report structure, renderers, determinism."""

import csv
import io
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from pcageom import report as report_module
from pcageom.corrstats import CorrelationMatrix, correlation_matrix, significance_matrix
from pcageom.errors import DataError
from pcageom.fixtures import fixture_path
from pcageom.ingest import load_csv, parse_column_spec, standardize
from pcageom.pcacore import project_scores
from pcageom.report import (
    _REPR_BATCH_MIN,
    _certified,
    _repr_batch,
    _thousandths,
    _three_decimals,
    load_input,
    render_csv,
    render_markdown,
    run_analysis,
    to_json_text,
)
from pcageom.svgplot import render_svg_scree, render_svg_similarity
from pcageom.varcluster import EXACT_BUDGET

CORR = fixture_path("iris_corr.json")
IRIS = fixture_path("iris.csv")

TOP_KEYS = {
    "provenance",
    "column_summaries",
    "correlation",
    "significance",
    "angles_deg",
    "determination",
    "eigen",
    "variance_explained",
    "loadings_full",
    "reconstruction_at_k",
    "selection",
    "similarity_profiles",
    "clusters",
    "scores",
    "relations",
}


@pytest.fixture(scope="module")
def corr_report():
    return run_analysis(CORR)


@pytest.fixture(scope="module")
def iris_report():
    return run_analysis(IRIS, columns="1-4", header=True)


def test_report_structure(corr_report):
    r = corr_report
    assert set(r) == TOP_KEYS
    assert r["provenance"]["input_kind"] == "correlation_json"
    assert r["provenance"]["k"] == r["reconstruction_at_k"]["k"] == 2
    assert r["column_summaries"] is None
    assert r["scores"] == {"available": False, "reason": "unavailable (no raw data)"}
    assert len(r["relations"]) == 22
    assert all(c["pass"] for c in r["relations"])
    assert r["selection"]["chosen_criterion"] == "per_variable"
    assert {s["component"] for s in r["variance_explained"]} == {"pc1", "pc2", "pc3", "pc4"}
    full, rec = r["loadings_full"], r["reconstruction_at_k"]
    blocks = [r["correlation"]["r"], r["significance"], r["angles_deg"], r["determination"],
              *(r["eigen"][key] for key in ("eigenvalues", "U", "R")),
              *(full[key] for key in ("loading", "determination", "row_sums", "column_sums", "row_averages")),
              *(rec[key] for key in ("determination", "column_sums", "row_averages")),
              r["selection"]["percentage"]["detail"]["cumulative_fraction"],
              r["selection"]["scree"]["detail"]["second_differences"],
              r["selection"]["per_variable"]["detail"]["min_cumulative_by_k"],
              *r["similarity_profiles"]["profiles"].values()]
    assert all(b.__class__ is np.ndarray and b.dtype == np.float64 for b in blocks)


def test_two_variable_report_has_no_second_differences(tmp_path):
    path = tmp_path / "r2.json"
    path.write_text(json.dumps({"names": ["a", "b"], "n_obs": 10, "r": [[1.0, 0.5], [0.5, 1.0]]}))
    report = run_analysis(path)
    text = to_json_text(report)
    assert '"second_differences": []' in text
    assert json.loads(text)["selection"]["scree"] == {"k": 1, "detail": {"no_elbow": True, "second_differences": []}}
    # the note is markdown's alone: the CSV row carries the criterion and k only
    assert "| scree | 1 | no elbow |" in render_markdown(report).splitlines()
    csv_text = render_csv(report)
    assert "scree,1" in csv_text.splitlines() and "elbow" not in csv_text


def test_report_from_raw_data(iris_report):
    r = iris_report
    assert r["provenance"]["input_kind"] == "csv"
    assert len(r["column_summaries"]) == 4
    assert all(s["n"] == 150 and s["divisor"] == "population" for s in r["column_summaries"])
    assert r["scores"]["available"] is True
    assert r["scores"]["divisor"] == "sample"
    assert len(r["scores"]["summaries"]) == 4
    # a population-standardized column scores with sample variance n/(n-1) lambda
    lam = r["eigen"]["eigenvalues"]
    for s, w in zip(r["scores"]["summaries"], lam):
        assert s["variance"] == pytest.approx(w * 150.0 / 149.0, abs=1e-8)


def test_selection_block_covers_all_criteria(corr_report):
    sel = corr_report["selection"]
    assert sel["percentage"]["k"] == 2
    assert sel["eigenvalue_ge_1"]["k"] == 1
    assert sel["scree"]["k"] == 1
    assert sel["per_variable"]["k"] == 2
    assert sel["k"] == 2


def test_threshold_override_moves_k():
    report = run_analysis(CORR, criterion="per_variable", threshold=0.93)
    assert report["provenance"]["k"] == 3
    assert report["reconstruction_at_k"]["k"] == 3
    first = report["reconstruction_at_k"]["variables"][0]
    assert len(report["similarity_profiles"]["profiles"][first]) == 3


def test_explicit_k_wins():
    report = run_analysis(CORR, k=4)
    assert report["provenance"]["k"] == 4
    assert report["provenance"]["k_requested"] == 4
    with pytest.raises(ValueError, match="k must be"):
        run_analysis(CORR, k=9)


def test_column_summaries_record_the_given_divisor():
    summaries = run_analysis(IRIS, columns="1-4", header=True, divisor="sample")["column_summaries"]
    assert [(s["n"], s["divisor"]) for s in summaries] == [(150, "sample")] * 4


def test_kmeans_method_recorded(tmp_path):
    report = run_analysis(CORR, cluster_method="kmeans", metric="l1", seed=5)
    assert report["clusters"]["method"] == "kmeans"
    assert report["clusters"]["metric"] == "l1"
    assert report["provenance"]["metric"] == "l1"
    assert set(report["clusters"]["clusters"]) == {"c1", "c2"}
    # above EXACT_BUDGET partitions the restart path runs and says so
    assert oracles.stirling2(12, 4) > EXACT_BUDGET
    above = run_analysis(seeded_csv(tmp_path / "v12.csv", 12), header=True, cluster_method="kmeans", k=4)
    assert above["clusters"]["exact"] is False


def test_naive_method_has_no_metric(corr_report):
    assert corr_report["provenance"]["metric"] is None
    block = corr_report["clusters"]
    assert set(block) == {"method", "threshold", "clusters"}
    assert block["method"] == "naive" and block["threshold"] == 0.5


def test_csv_path_releases_the_loaded_data(monkeypatch):
    # the loaded matrix is dead by the eigensolve, and no copy of it lives on
    loaded, alive = [], []
    load_csv, eigen_symmetric = report_module.load_csv, report_module.eigen_symmetric

    def load_and_watch(*args, **kwargs):
        data = load_csv(*args, **kwargs)
        loaded.append(weakref.ref(data.values))
        return data

    def eigen_and_check(corr):
        alive.extend(ref() is not None for ref in loaded)
        return eigen_symmetric(corr)

    monkeypatch.setattr(report_module, "load_csv", load_and_watch)
    monkeypatch.setattr(report_module, "eigen_symmetric", eigen_and_check)
    run_analysis(IRIS, columns="1-4", header=True)
    assert alive == [False]


def loaded(path, columns: str | None):
    """The ``DataMatrix`` the pipeline reads from ``path``, with a header row."""
    return load_csv(path, columns=None if columns is None else parse_column_spec(columns),
                    header=True)


@pytest.mark.parametrize("divisor", ["population", "sample"])
def test_score_summaries_match_the_projected_scores(tmp_path, divisor):
    # the closed form against the projection of the standardized data it replaced
    for path, columns in ((IRIS, "1-4"), (seeded_csv(tmp_path / "v20.csv", 20), None)):
        report = run_analysis(path, columns=columns, header=True, divisor=divisor)
        data = loaded(path, columns)
        projected = project_scores(standardize(data, divisor), report["eigen"]["R"]).summaries
        summaries = report["scores"]["summaries"]
        assert [s["component"] for s in summaries] == [s.name for s in projected]
        assert [s["mean"] for s in summaries] == [0.0] * len(summaries)
        np.testing.assert_allclose([s.mean for s in projected], 0.0, rtol=0.0, atol=1e-12)
        for key in ("std", "variance"):
            np.testing.assert_allclose([s[key] for s in summaries],
                                       [getattr(s, key) for s in projected], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("divisor", ["population", "sample"])
def test_correlation_of_the_loaded_data_matches_the_standardized_path(tmp_path, divisor):
    cases = ((IRIS, "1-4"), (seeded_csv(tmp_path / "v20.csv", 20), None),
             (seeded_csv(tmp_path / "tall.csv", 24, rows=10_000), None))
    for path, columns in cases:
        corr, _ = load_input(path, columns=columns, header=True, divisor=divisor)
        expected = oracles.standardized_correlation(loaded(path, columns), divisor)
        np.testing.assert_allclose(corr.r, expected, rtol=0.0, atol=1e-14)
        # centered in place, the bits of correlation_matrix's centered copy
        assert corr.r.tobytes() == correlation_matrix(loaded(path, columns)).r.tobytes()


def test_csv_analysis_peak_memory_is_bounded(tmp_path):
    # the loaded matrix is the only full-size array: the summaries copy a
    # block of columns at a time and the correlation centers it in place,
    # so loading sets the peak.  A label column first is left out of a
    # view of that matrix, not copied out of it.
    rows, n = 10_000, 24
    path = seeded_csv(tmp_path / "tall.csv", n, rows=rows)
    for label_column, data_columns in ((None, n), ("v1", n - 1)):
        # first-call allocations stay out of the peak
        run_analysis(path, header=True, label_column=label_column)
        tracemalloc.start()
        try:
            run_analysis(path, header=True, label_column=label_column)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        loaded = rows * data_columns * 8
        assert peak < 1.5 * loaded, (
            f"label {label_column}: peak {peak} B is {peak / loaded:.2f}x the data columns")


@pytest.mark.parametrize("value", ["5", "0.1"])
def test_a_constant_column_is_rejected_by_name(tmp_path, value):
    # 0.1 three times has an inexact mean, so it centers to noise, not zeros
    path = tmp_path / "flat.csv"
    path.write_text(f"a,c,b\n1,{value},3\n2,{value},1\n4,{value},2\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"^ingest: column 'c' has zero variance$"):
        run_analysis(path, header=True)


def test_bad_arguments():
    with pytest.raises(ValueError, match="criterion"):
        run_analysis(CORR, criterion="kaiser")
    with pytest.raises(ValueError, match="cluster method"):
        run_analysis(CORR, cluster_method="spectral")


def test_json_text_is_deterministic():
    a = to_json_text(run_analysis(CORR))
    b = to_json_text(run_analysis(CORR))
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a)  # stays parseable


def dumps_text(tree) -> str:
    """The reference ``to_json_text`` is pinned to: an array is written
    as its ``tolist()``."""
    return json.dumps(tree, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"


def seeded_data(n: int, rows: int) -> np.ndarray:
    rng = np.random.default_rng([20, n])
    return rng.standard_normal((rows, 3)) @ rng.standard_normal((3, n)) + rng.standard_normal((rows, n))


def seeded_csv(path, n: int, rows: int = 300):
    np.savetxt(path, seeded_data(n, rows), fmt="%.6f", delimiter=",", comments="",
               header=",".join(f"v{j + 1}" for j in range(n)))
    return path


def seeded_corr_json(path, n: int, n_obs: int = 500):
    """The correlation of ``seeded_data`` as a correlation JSON."""
    r = np.corrcoef(seeded_data(n, n_obs), rowvar=False)
    doc = {"names": [f"v{j + 1}" for j in range(n)], "n_obs": n_obs, "r": r.tolist()}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_json_text_matches_json_dumps_on_full_reports(tmp_path, corr_report):
    # at 48 variables the mirrored triangles and R = U transposed repeat
    # thousands of doubles across rows and blocks
    reports = [
        corr_report,
        run_analysis(IRIS, columns="1-4", header=True, cluster_method="kmeans"),
        run_analysis(seeded_csv(tmp_path / "v20.csv", 20), header=True),
        run_analysis(seeded_corr_json(tmp_path / "r48.json", 48), cluster_method="naive"),
    ]
    for report in reports:
        assert to_json_text(report) == dumps_text(report)


def test_json_text_peak_memory_is_bounded(tmp_path):
    # both reports hold more distinct doubles than _REPR_BATCH_MIN, so the
    # batch formatter's temporaries count in the peak
    reports = [
        run_analysis(seeded_csv(tmp_path / "v20.csv", 20), header=True),
        run_analysis(seeded_corr_json(tmp_path / "r48.json", 48), cluster_method="naive"),
    ]
    for report in reports:
        to_json_text(report)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            text = to_json_text(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text), f"peak {peak} B for {len(text)} characters"


JSON_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e308, 5e-324])
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text()
    | JSON_FLOATS | JSON_FLOATS.map(np.float64)
)
# doubles at repr's format switch points, and both zeros, repeated
# across the rows of a matrix
SHARED_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 9.999999999999999e15, 1e-05, 0.0001])
JSON_MATRICES = st.lists(st.lists(SHARED_FLOATS, min_size=1, max_size=6), min_size=1, max_size=6)
# rows of doubles with magnitudes from 1e-8 to 1e17, both signs, with
# repeats, zeros and short decimals among them; as a float64 array their
# first _REPR_BATCH_MIN // 8 rows hold more distinct doubles than
# _REPR_BATCH_MIN, so the batch formatter writes them
_rng = np.random.default_rng(19)
BATCH_ROWS = (_rng.standard_normal((_REPR_BATCH_MIN // 8, 16))
              * 10.0 ** _rng.integers(-8, 18, (_REPR_BATCH_MIN // 8, 16))).tolist()
BATCH_ROWS += [[0.0, -0.0, 0.5, 0.1, 1e-06, 1e16, -9.999999999999999e-05]] + BATCH_ROWS[:3]
del _rng
JSON_TREES = st.recursive(
    JSON_SCALARS | st.lists(JSON_FLOATS) | JSON_MATRICES,
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.text(), kids, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
@example({"": {}, "b": [], "\u00e9\x00\n\"": [[], {}], "a": {"z": None, "y": [True, False, 0]}})
@example({"overflow": [1e308, 1e308], "cancel": [1e308, -1e308, 1.5], "mixed": [1, 2.5, -0.0],
          "tuples": ((0.5, 1.5), (), (math.nan,))})
@example([[math.nan, 1.0], [math.inf], [-math.inf, -0.0], [0.1, 1e-300, -2.5e100]])
@example({"np": [np.float64(0.1), np.float64(math.nan), np.float64(-0.0)], "x": np.float64(2.0)})
@example(["\x1f\u2028\U0001f600\ud800", "\\/\t", 10**30, -(10**30)])
@example({"a": [[0.0, -0.0], [-0.0, 0.0]], "b": [-0.0, 0.0]})
@example({"R": [[0.1, 0.2], [0.3, 0.4]], "U": [[0.1, 0.3], [0.2, 0.4]]})
@example({"rows": BATCH_ROWS, "scalar": BATCH_ROWS[0][0]})
# record scalars that share their bits with array cells, and both zeros
# of each kind
@example({"cells": np.array([[0.0, -0.0], [math.nan, math.inf]]), "v": np.array([0.5, -math.inf]),
          "records": [{"x": -0.0, "y": 0.0, "z": 0.5}, {"x": math.nan, "y": math.inf, "z": -math.inf},
                      {"x": np.float64(-0.0), "y": np.float64(math.nan), "z": np.float64(0.5)}]})
# record scalars alone hold more distinct doubles than _REPR_BATCH_MIN
@example({"cells": np.array([0.5, -0.0]),
          "records": [{"v": v, "w": -v} for row in BATCH_ROWS[:_REPR_BATCH_MIN // 16 + 1] for v in row]})
def test_json_text_matches_json_dumps(tree):
    assert to_json_text(tree) == dumps_text(tree)


ARRAY_FLOATS = st.floats() | st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e-310])
# float64 blocks of one and two dimensions, zero rows and zero columns
# among them, and arrays that are written as their tolist(): other
# dtypes, zero and three dimensions
FLOAT_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
                          elements=ARRAY_FLOATS)
OTHER_ARRAYS = (
    hnp.arrays(st.sampled_from([np.int64, np.float32, np.bool_]), hnp.array_shapes(min_dims=1, max_dims=2))
    | hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3).filter(lambda s: len(s) not in (1, 2)),
                 elements=ARRAY_FLOATS)
)
ARRAY_TREES = st.recursive(
    FLOAT_ARRAYS | OTHER_ARRAYS | JSON_SCALARS | JSON_MATRICES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(ARRAY_TREES)
@example({"empty": [np.empty(0), np.empty((0, 3)), np.empty((3, 0))], "row": np.array([[0.5, -0.0]])})
@example([np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324]), [math.nan, 0.1], np.array([[0.1], [-0.0]])])
@example({"R": np.array([[0.1, 0.2], [0.3, 0.4]]), "U": np.array([[0.1, 0.3], [0.2, 0.4]]).T})
@example({"batch": np.array(BATCH_ROWS[:_REPR_BATCH_MIN // 8]), "rows": BATCH_ROWS[:2], "nan": np.full((2, 2), math.nan)})
def test_json_text_writes_arrays_as_json_dumps_does(tree):
    assert to_json_text(tree) == dumps_text(tree)


@pytest.mark.parametrize(("tree", "names"), [
    ({1: 0.5}, "int"),
    ({"a": 0, 1: 0}, "int"),
    ({"a": {None: 0.5}}, "NoneType"),
    ({"a": [{(1, 2): 0}]}, "tuple"),
    ({"a": np.int64(3)}, "int64"),
    ([{1, 2}], "set"),
])
def test_json_text_rejects_what_the_report_never_holds(tree, names):
    with pytest.raises(TypeError, match=names):
        to_json_text(tree)


def assert_reprs(values) -> None:
    doubles = np.asarray(values, dtype=np.float64)
    texts = _repr_batch(doubles)
    assert texts.dtype == object and texts.shape == doubles.shape
    expected = list(map(float.__repr__, doubles.tolist()))
    wrong = [(e, t) for e, t in zip(expected, texts.tolist()) if e != t]
    assert not wrong, f"{len(wrong)} of {doubles.size} differ, e.g. {wrong[:5]}"


def neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


def test_repr_batch_on_named_doubles():
    powers_of_two = 2.0 ** np.arange(-1074, 1024)
    subnormals = np.array([5e-324, 1e-320, 2.225073858507201e-308, 1e-310])
    edges = neighbours([1e-06, 1e-05, 0.0001, 0.001, 0.1, 1.0, 1e15, 1e16, 9.999999999999999e-05,
                        9.999999999999999e-07, 9007199254740992.0])
    integers = np.concatenate([np.arange(1, 100_001), 2.0**53 - np.arange(100_000),
                               np.random.default_rng(1).integers(1, 2**53, 100_000)]).astype(np.float64)
    k = np.arange(1, 20_001, dtype=np.float64)
    short = neighbours(np.concatenate([k / 10.0**j for j in range(1, 12)]))
    # odd quarters past 2**50: ten times each ends in .5, a tie between
    # two 17-digit candidates
    ties = np.arange(2**52 + 1, 2**52 + 20_001, 2) / 4.0
    for values in (powers_of_two, subnormals, edges, integers, short, ties):
        assert_reprs(np.concatenate([values, -values]))
    zeros = _repr_batch(np.array([0.0, -0.0]))
    assert zeros.tolist() == ["0.0", "-0.0"]


def test_repr_batch_on_seeded_doubles():
    # about a million doubles: every bit pattern, magnitudes across the
    # certified range and past both of its ends, and correlation-like values
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, 250_000, dtype=np.uint64, endpoint=False).view(np.float64)
    spread = rng.uniform(-1.0, 1.0, 500_000) * 10.0 ** rng.uniform(-8.0, 17.0, 500_000)
    unit = rng.uniform(-1.0, 1.0, 250_000)
    assert_reprs(np.concatenate([bits[np.isfinite(bits)], spread, unit]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.floats(1e-7, 1e17) | st.floats(-1.0, 1.0), max_size=300))
@example([])
@example([1e-06, 1e16, 9.999999999999999e-05, 0.30000000000000004, 2.0**52 + 1, -5e-324])
def test_repr_batch_matches_float_repr(values):
    assert_reprs(values)


def test_repr_batch_below_1e_minus_6():
    # the neighbours of 10**-k, and doubles in every decade from the
    # smallest normal double up to 1e-6
    powers = np.array([float(f"1e-{k}") for k in range(6, 308)])
    rng = np.random.default_rng(28)
    scales = np.array([float(f"1e-{k}") for k in range(7, 310)])
    decades = rng.uniform(1.0, 10.0, (scales.size, 40)) * scales[:, None]
    decades = decades[decades >= 2.0**-1022]
    assert_reprs(np.concatenate([neighbours(powers), decades, -decades]))


def certified_share(doubles: np.ndarray) -> float:
    return _certified(doubles)[0].size / doubles.size


def test_certified_admits_doubles_below_1e_minus_6():
    # the byte tests pass even if every value falls back to
    # float.__repr__: this one checks that the fast path takes them
    rng = np.random.default_rng(1022)
    doubles = rng.uniform(1.0, 10.0, 100_000) * 10.0 ** rng.integers(-308, -6, 100_000)
    doubles = doubles[doubles >= 2.0**-1022]
    assert doubles.max() < 1e-6 and doubles.min() < 1e-300
    assert certified_share(np.concatenate([doubles, -doubles])) >= 0.99


@pytest.mark.parametrize(("n_obs", "spread"), [(500, 0.9), (10**6, 0.04)])
def test_certified_admits_p_values(n_obs, spread):
    """Almost every significance level is certified; zeros (p below the
    smallest double) and subnormals stay with float.__repr__.  The
    levels read only the off-diagonal entries, drawn here so that they
    reach below 1e-100."""
    rng = np.random.default_rng([28, n_obs])
    r = rng.uniform(-spread, spread, (80, 80))
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 1.0)
    p = significance_matrix(CorrelationMatrix(r, n_obs, [f"v{j}" for j in range(80)]))
    p = np.unique(p[p >= 2.0**-1022])
    tiny = p[p < 1e-6]
    assert tiny.size >= 500 and tiny.min() < 1e-100
    assert certified_share(p) >= 0.99
    assert certified_share(tiny) >= 0.99


# every bit pattern of a normal double from 2**-1022 up to 2**-19 (about
# 1.9e-6), across 1e-6 as well: biased exponents 1 to 1003
TINY_DOUBLES = st.builds(
    lambda exponent, fraction, negative: float(np.uint64((negative << 63) | (exponent << 52) | fraction)
                                               .view(np.float64)),
    st.integers(1, 1003), st.integers(0, 2**52 - 1), st.integers(0, 1),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(TINY_DOUBLES, min_size=1, max_size=300))
@example([2.0**-1022, -(2.0**-1022), math.nextafter(2.0**-1022, 1.0), 1e-300, 1e-100, 1e-22, 1e-07,
          9.999999999999999e-07, math.nextafter(1e-06, 0.0)])
def test_repr_batch_matches_float_repr_below_1e_minus_6(values):
    assert_reprs(values)


@pytest.fixture(scope="module")
def text_reports(tmp_path_factory, corr_report):
    """Iris as k-means and as its correlation JSON, the 48-variable JSON
    with naive clusters pc1 to pc22, and a 160-variable k-means report
    with clusters c1 to c12."""
    tmp = tmp_path_factory.mktemp("text_reports")
    return [
        run_analysis(IRIS, columns="1-4", header=True, cluster_method="kmeans"),
        corr_report,
        run_analysis(seeded_corr_json(tmp / "r48.json", 48), cluster_method="naive"),
        run_analysis(seeded_csv(tmp / "v160.csv", 160), header=True, cluster_method="kmeans",
                     k=12),
    ]


def test_values_at_k_are_the_first_k_rows_of_the_full_table(iris_report, text_reports):
    """The reconstruction block and the profiles restate no number: they
    are the first k rows of ``loadings_full``."""
    iris, v160 = iris_report, text_reports[3]
    assert (iris["provenance"]["k"], v160["provenance"]["k"]) == (2, 12)
    for report in (iris, v160):
        k = report["provenance"]["k"]
        full, rec = report["loadings_full"], report["reconstruction_at_k"]
        assert np.array_equal(rec["determination"], full["determination"][:k])
        assert np.array_equal(rec["row_averages"], full["row_averages"][:k])
        assert rec["pc_labels"] == full["pc_labels"][:k]
        profiles = report["similarity_profiles"]["profiles"]
        for j, name in enumerate(full["variables"]):
            assert np.array_equal(profiles[name], full["determination"][:k, j])


def test_text_renderers_match_the_f_string_renderer(text_reports):
    for report in text_reports:
        assert render_markdown(report) == oracles.reference_render_markdown(report)
        assert render_csv(report) == oracles.reference_render_csv(report)


def test_renderers_read_report_json_alike(text_reports):
    # report.json sorts every dict's keys, so neither the tables nor the
    # map may follow the order of the profile and cluster dicts
    for report in text_reports:
        plain = json.loads(to_json_text(report))
        assert render_markdown(plain) == render_markdown(report)
        assert render_csv(plain) == render_csv(report)
        assert render_svg_scree(plain) == render_svg_scree(report)
        if report["provenance"]["k"] == 2:
            assert render_svg_similarity(plain) == render_svg_similarity(report)
    assert sum(report["provenance"]["k"] == 2 for report in text_reports) == 2


def test_markdown_peak_memory_is_bounded(tmp_path):
    report = run_analysis(seeded_csv(tmp_path / "v20.csv", 20), header=True)
    render_markdown(report)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        text = render_markdown(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * len(text), f"peak {peak} B for {len(text)} characters"


def keyed_texts(values: list[float], scale: float) -> list[str]:
    return _three_decimals([([values], scale)])[0][0]


def test_three_decimals_on_every_boundary():
    # every k/1000 and (k + 0.5)/1000 for |k| <= 200,000, and the values
    # that the x100 scale takes there
    k = np.arange(-200_000, 200_001, dtype=np.float64)
    for scale, step in ((1.0, 1000.0), (100.0, 100_000.0)):
        values = np.concatenate([k / step, (k + 0.5) / step]).tolist()
        assert keyed_texts(values, scale) == [f"{v * scale:.3f}" for v in values]


def boundary_neighbours(k: int) -> list[float]:
    at = (k + 0.5) / 1000.0
    return [at, math.nextafter(at, -math.inf), math.nextafter(at, math.inf), k / 1000.0]


CELL_FLOATS = (
    st.floats()
    | st.floats(-200.0, 200.0)
    | st.floats(-1e-3, 1e-3)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 1e300, -1e300,
                       2.0**31 / 1000.0, -(2.0**31) / 1000.0, 2.0**53])
)
NEAR_BOUNDARY = st.integers(-200_000, 200_000).flatmap(lambda k: st.sampled_from(boundary_neighbours(k)))


@settings(max_examples=300, deadline=None)
@given(st.lists(CELL_FLOATS | NEAR_BOUNDARY, min_size=1, max_size=40), st.sampled_from([1.0, 100.0]))
@example([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 1e300, -1e300], 1.0)
@example([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 1e300, -1e300], 100.0)
@example([-0.0004, -0.0005, 0.0005, 0.0625, -0.0625, 179.9995, 1e-7], 1.0)
@example([x for k in (-2, -1, 0, 1, 62, 199_999) for x in boundary_neighbours(k)], 1.0)
def test_three_decimals_matches_the_f_string(values, scale):
    assert keyed_texts(values, scale) == [f"{v * scale:.3f}" for v in values]


def test_three_decimals_keeps_the_block_shapes():
    blocks = [(np.array([[0.1, 0.2], [0.3, -0.0]]), 1.0), (np.empty(0), 1.0), (np.array([0.5, 0.25]), 100.0),
              (np.empty((0, 3)), 1.0), (np.empty((2, 0)), 1.0), ([[0.5], [1.0]], 1.0)]
    assert _three_decimals(blocks) == [
        [["0.100", "0.200"], ["0.300", "-0.000"]], [], ["50.000", "25.000"], [], [[], []], [["0.500"], ["1.000"]],
    ]
    assert _three_decimals([([[]], 1.0)]) == [[[]]]


KEY = 2**31 - 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-KEY, KEY).map(float) | st.just(-0.0), min_size=1, max_size=60))
@example([-0.0, 0.0, 999.0, -999.0, 1000.0, -1000.0, float(KEY), -float(KEY)])
@example([1.0, -1.0, 10.0, 100.0, 999_999.0, 1_000_000.0, 1_000_001.0, -123_456_789.0])
# each digit count's last and first key, on both sides of zero
@example([float(sign * k) for sign in (1, -1) for p in (4, 5, 7, 8, 9) for k in (10**p - 1, 10**p)])
def test_three_decimal_keys_are_laid_out_as_the_format(keys):
    expected = ["{:.3f}".format(k / 1000) for k in keys]
    assert _thousandths(np.array(keys)) == expected
    assert keyed_texts([k / 1000 for k in keys], 1.0) == expected


def test_markdown_sections(corr_report):
    md = render_markdown(corr_report)
    for heading in (
        "# Correlation-geometry PCA report",
        "## Correlation matrix",
        "## Variance explained",
        "## Reconstruction with the first 2 component(s)",
        "## Component-count selection",
        "## Clusters",
        "## Representation identities",
    ):
        assert heading in md
    # no column summaries section for a correlation-only run
    assert "## Column summaries" not in md
    assert "unavailable (no raw data)" in md


def test_markdown_lists_every_variable(corr_report):
    md = render_markdown(corr_report)
    for name in corr_report["correlation"]["names"]:
        assert name in md


def test_renderers_agree_on_values(corr_report):
    r = corr_report
    md = render_markdown(r)
    csv_text = render_csv(r)
    lam = r["eigen"]["eigenvalues"]
    for w in lam:
        assert f"{w:.3f}" in md
        assert f"{w:.3f}" in csv_text
    for frac in r["reconstruction_at_k"]["column_sums"]:
        pct = f"{100.0 * frac:.3f}"
        assert pct in md
        assert pct in csv_text


def test_csv_is_parseable_and_sectioned(corr_report):
    text = render_csv(corr_report)
    rows = list(csv.reader(io.StringIO(text)))
    assert any(row and row[0].startswith("#") for row in rows)
    flat = {cell for row in rows for cell in row}
    assert "pc1" in flat


def test_csv_quotes_names_per_rfc_4180(tmp_path):
    names = ["a,b", 'q"x', "line\nbreak", "car\rreturn", "plain"]
    data = tmp_path / "names.csv"
    header = ",".join('"' + n.replace('"', '""') + '"' for n in names)
    rows = ["1,2,3,4,2", "2,1,4,3,5", "3,5,2,1,1", "4,3,1,2,4", "5,4,5,5,3", "6,2,2,4,1"]
    data.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    report = run_analysis(data, header=True)
    assert report["correlation"]["names"] == names
    rows = list(csv.reader(io.StringIO(render_csv(report))))
    i = rows.index(["# correlation"])
    assert rows[i + 1] == [""] + names
    assert [row[0] for row in rows[i + 2 : i + 2 + len(names)]] == names
    assert all(len(row) == len(names) + 1 for row in rows[i + 1 : i + 2 + len(names)])


def test_markdown_writes_line_breaks_in_names_as_br(tmp_path):
    """A name with a line break keeps every table row of report.md on one line."""
    csv_in = tmp_path / "nl.csv"
    rows = ["1,2,3,4", "2,1,4,3", "3,5,2,1", "4,3,1,2", "5,4,5,5", "6,2,2,4"]
    csv_in.write_text("\n".join(['"a\nb",c,d,e', *rows]) + "\n", encoding="utf-8")
    doc = json.loads(CORR.read_text(encoding="utf-8"))
    doc["names"] = ["Sepal\nLength", "Sepal\r\nWidth", "Petal\rLength", "Petal Width"]
    json_in = tmp_path / "nl.json"
    json_in.write_text(json.dumps(doc), encoding="utf-8")
    for path, header, broken, written in (
        (csv_in, True, "a\nb", ["a<br>b"]),
        (json_in, False, "Sepal\nLength", ["Sepal<br>Length", "Sepal<br>Width", "Petal<br>Length"]),
    ):
        report = run_analysis(path, header=header, k=2)
        assert report["correlation"]["names"][0] == broken  # report.json keeps the name
        md = render_markdown(report)
        for name in written:
            assert f"| {name} |" in md
        # splitlines also splits at a stray "\r"
        tables = [block.splitlines() for block in md.split("\n\n") if block.startswith("|")]
        assert len(tables) >= 10
        for line in (line for table in tables for line in table):
            assert line.startswith("|") and line.endswith("|"), line


def test_markdown_escapes_pipes_in_names(tmp_path):
    names = ["a|b", "c", "d||", "plain"]
    data = tmp_path / "pipes.csv"
    rows = ["1,2,3,4", "2,1,4,3", "3,5,2,1", "4,3,1,2", "5,4,5,5", "6,2,2,4"]
    data.write_text("\n".join([",".join(names), *rows]) + "\n", encoding="utf-8")
    report = run_analysis(data, header=True)
    md = render_markdown(report)
    assert "| a\\|b |" in md
    table = []
    for line in md.split("\n") + [""]:
        if line.startswith("|"):
            table.append(len(re.findall(r"(?<!\\)\|", line)))
        elif table:
            assert table == [table[0]] * len(table)
            table = []
