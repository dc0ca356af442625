"""Pipeline-level metamorphic relations: what reordering the columns,
changing their units or signs, or handing over the correlation matrix
instead of the data leaves unchanged in the report.

Only the exact k-means path is covered: above ``EXACT_BUDGET`` partitions
the Lloyd restarts can settle in other local optima when the columns are
reordered, so heuristic clusters may depend on column order.
"""

import json

import numpy as np
import pytest

from pcageom.pcacore import CRITERIA
from pcageom.report import render_markdown, run_analysis, to_json_text
from pcageom.varcluster import EXACT_BUDGET

from oracles import stirling2

ROWS = 200
TOL = 1e-9
EXACT_METRICS = ("l1", "l2", "cosine")


def factor_data(n: int) -> np.ndarray:
    """Seeded two-factor data: ``ROWS`` observations of ``n`` variables."""
    rng = np.random.default_rng([41, n])
    factors = rng.standard_normal((ROWS, 2))
    loadings = rng.uniform(-1.0, 1.0, (2, n))
    return factors @ loadings + 0.6 * rng.standard_normal((ROWS, n))


def write_csv(path, values: np.ndarray, names: list[str]):
    # 17 significant digits: the file holds every double exactly
    np.savetxt(path, values, fmt="%.17g", delimiter=",", comments="", header=",".join(names))
    return path


def analyses(path, n: int) -> dict:
    """Naive clusters at the selected k, and exact k-means at k = 2 for
    each metric where the partition count is within the budget."""
    header = path.suffix == ".csv"
    runs = {"naive": run_analysis(path, header=header)}
    if stirling2(n, 2) <= EXACT_BUDGET:
        for metric in EXACT_METRICS:
            runs[metric] = run_analysis(path, header=header, cluster_method="kmeans",
                                        metric=metric, k=2)
    return runs


def scores_table(report: dict) -> str:
    """The Scores section of report.md."""
    return render_markdown(report).split("\n## Scores\n", 1)[1].split("\n## ", 1)[0]


def assert_same_scores(a: dict, b: dict) -> None:
    """Equal score summaries: means exactly 0, the rest within ``TOL``."""
    sa, sb = a["scores"]["summaries"], b["scores"]["summaries"]
    assert [s["component"] for s in sb] == [s["component"] for s in sa]
    assert [s["mean"] for s in sa] == [s["mean"] for s in sb] == [0.0] * len(sa)
    for key in ("std", "variance"):
        np.testing.assert_allclose([s[key] for s in sb], [s[key] for s in sa], rtol=0.0, atol=TOL)


def blocks(clusters: dict) -> set[frozenset[str]]:
    """The clusters as sets of names: k-means ids follow column order."""
    return {frozenset(members) for members in clusters.values() if members}


def assert_same_analysis(a: dict, b: dict, perm: np.ndarray) -> None:
    """``b`` analyses the columns of ``a`` in the order ``perm``."""
    names = a["correlation"]["names"]
    assert b["correlation"]["names"] == [names[i] for i in perm]
    assert [b["selection"][c]["k"] for c in CRITERIA] == [a["selection"][c]["k"] for c in CRITERIA]
    assert b["provenance"]["k"] == a["provenance"]["k"]
    np.testing.assert_allclose(b["eigen"]["eigenvalues"], a["eigen"]["eigenvalues"], atol=TOL)
    np.testing.assert_allclose(b["determination"], a["determination"][np.ix_(perm, perm)],
                               atol=TOL)
    np.testing.assert_allclose(b["loadings_full"]["determination"],
                               a["loadings_full"]["determination"][:, perm], atol=TOL)
    np.testing.assert_allclose(b["reconstruction_at_k"]["determination"],
                               a["reconstruction_at_k"]["determination"][:, perm], atol=TOL)
    ca, cb = a["clusters"], b["clusters"]
    assert cb["method"] == ca["method"]
    if ca["method"] == "naive":
        # naive ids are component labels, which no column order changes
        assert {c: set(m) for c, m in cb["clusters"].items()} == \
            {c: set(m) for c, m in ca["clusters"].items()}
    else:
        assert ca["exact"] and cb["exact"]
        assert blocks(cb["clusters"]) == blocks(ca["clusters"])
        assert cb["objective"] == pytest.approx(ca["objective"], abs=TOL)


@pytest.mark.parametrize("n", range(3, 14))
def test_permuted_columns_give_the_same_analysis(tmp_path, n):
    x = factor_data(n)
    names = [f"v{j + 1}" for j in range(n)]
    perm = np.random.default_rng([42, n]).permutation(n)
    if (perm == np.arange(n)).all():
        perm = perm[::-1]
    a = analyses(write_csv(tmp_path / "a.csv", x, names), n)
    b = analyses(write_csv(tmp_path / "b.csv", x[:, perm], [names[i] for i in perm]), n)
    assert a.keys() == b.keys()
    for key in a:
        assert_same_analysis(a[key], b[key], perm)
        assert_same_scores(a[key], b[key])
        assert scores_table(b[key]) == scores_table(a[key])


@pytest.mark.parametrize("n", range(3, 14))
def test_units_and_signs_do_not_change_the_analysis(tmp_path, n):
    x = factor_data(n)
    names = [f"v{j + 1}" for j in range(n)]
    rng = np.random.default_rng([43, n])
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    sign[0] = -1.0
    scale = 10.0 ** rng.uniform(-3.0, 3.0, n)
    a = analyses(write_csv(tmp_path / "a.csv", x, names), n)
    b = analyses(write_csv(tmp_path / "b.csv", x * (sign * scale) + rng.uniform(-1e3, 1e3, n),
                           names), n)
    identity = np.arange(n)
    # a sign flip negates a correlation and turns its angle into the supplement
    flip = np.outer(sign, sign)
    for key in a:
        assert_same_analysis(a[key], b[key], identity)
        np.testing.assert_allclose(b[key]["correlation"]["r"], flip * a[key]["correlation"]["r"],
                                   atol=TOL)
        np.testing.assert_allclose(b[key]["significance"], a[key]["significance"], atol=TOL)
        np.testing.assert_allclose(b[key]["angles_deg"],
                                   np.where(flip > 0, a[key]["angles_deg"],
                                            180.0 - a[key]["angles_deg"]), atol=1e-6)
        assert_same_scores(a[key], b[key])


@pytest.mark.parametrize("n", range(3, 14))
def test_a_csv_and_its_correlation_json_give_equal_derived_blocks(tmp_path, n):
    x = factor_data(n)
    names = [f"v{j + 1}" for j in range(n)]
    from_csv = analyses(write_csv(tmp_path / "a.csv", x, names), n)
    corr = from_csv["naive"]["correlation"]
    doc = {"names": corr["names"], "n_obs": corr["n_obs"], "r": corr["r"].tolist()}
    (tmp_path / "a.json").write_text(json.dumps(doc), encoding="utf-8")
    from_json = analyses(tmp_path / "a.json", n)
    for key in from_csv:
        for block in ("significance", "angles_deg", "determination"):
            assert from_json[key][block].tobytes() == from_csv[key][block].tobytes(), block
        # the rest differs only where the data itself is reported
        a, b = (json.loads(to_json_text(r[key])) for r in (from_csv, from_json))
        assert {block for block in a if a[block] != b[block]} == \
            {"provenance", "column_summaries", "scores"}
