"""Smoke tests: the pipeline benchmark still runs against the package API.

One ``bench_pipeline`` row runs at n = 4 with ``harness.MIN_S`` at zero,
so each timing takes exactly ``harness.REPEAT`` calls; ``main``, which
writes the ``BENCH_*.json`` files, runs only on a temporary file.  The
benchmark loads ``perfbench/spans.py`` by file path, so ``perfbench/``
stays off ``sys.path`` for the other tests.  The tracer's hooks are
checked against the package, so a renamed layer function fails here
instead of silently losing its span, and so does one that ``report``
stops calling on CSV input.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    module = importlib.import_module("harness")
    monkeypatch.setattr(module, "MIN_S", 0.0)
    return module


def test_bench_pipeline_row(monkeypatch, tmp_path, harness):
    bench = importlib.import_module("bench_pipeline")
    monkeypatch.setattr(bench, "OUT", tmp_path / "BENCH_pipeline.json")
    monkeypatch.chdir(tmp_path)
    data = tmp_path / "data.csv"
    harness.write_factor_csv(data, 4)
    row = bench.measure(data, bench.kmeans_flags(4, "l2"), case="n=4 l2", n=4)
    assert row["case"] == "n=4 l2" and row["flags"][-2:] == ["--metric", "l2"]
    assert row["timed_calls"] == row["traced_calls"] == harness.REPEAT
    for span in ("ingest.load_csv", "eigensolve.eigen_symmetric", "varcluster.cluster_kmeans",
                 "report.to_json_text", "report.render_markdown"):
        assert row["stages_s"][span] > 0.0
    assert row["exact"] is True and row["objective"] >= 0.0
    assert isinstance(row["missing"], list) and len(row["report_sha256"]) == 64
    assert len(row["markdown_sha256"]) == 64
    assert row["peak_mb"] > 0.0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]
    assert "perfbench" not in {Path(p).name for p in sys.path}


def test_bench_pipeline_correlation_json_row(tmp_path, harness):
    bench = importlib.import_module("bench_pipeline")
    corr = tmp_path / "corr.json"
    harness.write_factor_json(corr, 4, 50)
    doc = json.loads(corr.read_text(encoding="utf-8"))
    assert doc["names"] == ["v1", "v2", "v3", "v4"] and doc["n_obs"] == 50
    row = bench.measure(corr, bench.JSON_FLAGS, case="json n=4", n=4, n_obs=50)
    assert row["flags"] == ["--clusters", "naive"]
    for span in ("corrstats.load_correlation_json", "report.to_json_text"):
        assert row["stages_s"][span] > 0.0
    assert "ingest.load_csv" not in row["stages_s"] and "exact" not in row
    assert len(row["report_sha256"]) == 64 and len(row["markdown_sha256"]) == 64
    # the digests cut the input path to its file name
    (tmp_path / "elsewhere").mkdir()
    moved = corr.rename(tmp_path / "elsewhere" / corr.name)
    again = bench.measure(moved, bench.JSON_FLAGS, case="json n=4", n=4, n_obs=50)
    assert (again["report_sha256"], again["markdown_sha256"]) == (row["report_sha256"],
                                                                  row["markdown_sha256"])


def test_bench_pipeline_keeps_the_fastest_pass(monkeypatch, harness):
    bench = importlib.import_module("bench_pipeline")

    def row(analysis_s, stages_s, digest="d", peak_mb=1.0):
        return {"case": "c", "analysis_s": analysis_s, "timed_calls": 5, "stages_s": stages_s,
                "traced_calls": 6, "peak_mb": peak_mb, "report_sha256": digest, "markdown_sha256": "m"}

    passes = iter([[row(2.0, {"a": 1.0, "b": 3.0}, peak_mb=2.5)], [row(1.5, {"a": 2.0, "b": 1.0})]])
    monkeypatch.setattr(bench, "one_pass", lambda: next(passes))
    [got] = list(bench.measure_all())
    assert got["analysis_s"] == 1.5 and got["stages_s"] == {"a": 1.0, "b": 1.0}
    assert got["peak_mb"] == 2.5  # the largest peak, not the fastest pass's
    assert (got["timed_calls"], got["traced_calls"]) == (10, 12)
    with pytest.raises(RuntimeError, match="report_sha256 differs between passes"):
        bench.merged(row(1.0, {}), row(1.0, {}, digest="e"))


def test_bench_main_merges_under_the_label(monkeypatch, tmp_path, capsys, harness):
    out = tmp_path / "BENCH_test.json"
    earlier = {"environment": {}, "rows": [{"n": 4, "t_s": 2.0}]}
    out.write_text(json.dumps({"description": "old", "runs": {"earlier": earlier}}))
    monkeypatch.setattr(sys, "argv", ["bench_test.py", "--label", "new"])
    harness.main(out, "what the rows hold", iter([{"n": 4, "t_s": 1.0}]), "doc")
    bench = json.loads(out.read_text())
    assert bench["description"] == "what the rows hold"
    assert bench["runs"]["earlier"] == earlier
    assert bench["runs"]["new"]["rows"] == [{"n": 4, "t_s": 1.0}]
    assert bench["runs"]["new"]["environment"] == harness.environment()
    assert capsys.readouterr().out == f"wrote {out} [new]\n"


def test_perfbench_hooks_resolve(tmp_path, capsys, harness):
    spans = importlib.import_module("bench_pipeline").spans
    from pcageom import cli, corrstats

    real = corrstats.betainc_reg
    tracer = spans.Tracer()
    tracer.install()
    try:
        unresolved = sorted(tracer.missing)
        assert cli.main(["analyze", "fixtures/iris_corr.json", "--out", str(tmp_path)]) == 0
        json_spans = set(tracer.inclusive)
        assert cli.main(["analyze", "fixtures/iris.csv", "--columns", "1-4", "--header",
                         "--out", str(tmp_path / "csv")]) == 0
        csv_spans = set(tracer.inclusive) - json_spans
    finally:
        tracer.remove()
    # the stale hooks name functions the package no longer has, or that
    # the pipeline no longer calls (standardize, project_scores, and
    # correlation_matrix: load_input correlates the matrix it loaded in place)
    assert unresolved == ["pcageom.eigensolve.jacobi_sweeps", "pcageom.report.correlation_matrix",
                          "pcageom.report.project_scores", "pcageom.report.scree_data",
                          "pcageom.report.standardize", "pcageom.varcluster.assign_labels",
                          "pcageom.varcluster.point_distance"]
    assert corrstats.betainc_reg is real
    assert tracer.counts["corrstats.betainc_calls"] == 2
    # a name that report stops calling reads like a deleted one
    assert "corrstats.load_correlation_json" in json_spans
    assert csv_spans == {"ingest.parse_column_spec", "ingest.load_csv", "ingest.summarize"}
