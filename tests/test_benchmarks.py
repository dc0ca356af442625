"""Smoke tests: the benchmark scripts still run against the package API.

Each script's ``measure`` runs once at n = 4 with ``harness.MIN_S`` at
zero, so each timing takes exactly ``harness.REPEAT`` calls; ``main``,
which writes the ``BENCH_*.json`` files, runs only on a temporary file.
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


def load_bench(monkeypatch, tmp_path, name):
    bench = importlib.import_module(name)
    monkeypatch.setattr(bench, "OUT", tmp_path / f"{name}.json")
    return bench


def test_bench_eigensolve_measures(monkeypatch, tmp_path, harness):
    bench = load_bench(monkeypatch, tmp_path, "bench_eigensolve")
    row = bench.measure(4)
    assert row["n"] == 4
    assert row["offdiag_norm"] <= row["offdiag_target"]
    assert row["max_eigenvalue_err"] < 1e-10 and row["orthogonality_err"] < 1e-12
    assert row["timed_solves"] == harness.REPEAT
    assert not bench.OUT.exists()


def test_bench_varcluster_measures(monkeypatch, tmp_path, harness):
    bench = load_bench(monkeypatch, tmp_path, "bench_varcluster")
    row = bench.measure(4, bench.pipeline_profiles(4, 3), 3, "l2")
    assert (row["n"], row["k"], row["metric"]) == (4, 3, "l2")
    assert row["path"] == "exact" and row["n_iterations"] is None
    assert row["timed_calls"] == harness.REPEAT
    assert not bench.OUT.exists()


def test_bench_ingest_measures(monkeypatch, tmp_path, harness):
    bench = load_bench(monkeypatch, tmp_path, "bench_ingest")
    row = bench.measure(4)
    assert (row["n"], row["rows"], row["cells"]) == (4, harness.ROWS, 4 * harness.ROWS)
    assert row["bitwise_float"] and row["timed_loads"] == harness.REPEAT
    row = bench.measure(4, label_column="v1")
    assert (row["label_column"], row["cells"]) == ("v1", 3 * harness.ROWS)
    assert row["bitwise_float"] and row["timed_loads"] == harness.REPEAT
    assert (24, 10_000, "v1") in bench.CASES
    assert not bench.OUT.exists()


def test_bench_output_measures(monkeypatch, tmp_path, harness):
    bench = load_bench(monkeypatch, tmp_path, "bench_output")
    row = bench.measure(4)
    assert (row["n"], row["rows"]) == (4, harness.ROWS)
    assert row["bytes_equal_dumps"] and row["json_bytes"] > 0
    assert row["timed_calls"] == harness.REPEAT
    assert not bench.OUT.exists()


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
