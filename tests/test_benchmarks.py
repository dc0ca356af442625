"""Smoke tests: the benchmark scripts still run against the package API.

Each script's ``measure`` runs once at n = 4; ``main``, which writes the
``BENCH_*.json`` files, is not called.
"""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_bench(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    bench = importlib.import_module(name)
    monkeypatch.setattr(bench, "OUT", tmp_path / f"{name}.json")
    return bench


def test_bench_eigensolve_measures(monkeypatch, tmp_path):
    bench = load_bench(monkeypatch, tmp_path, "bench_eigensolve")
    row = bench.measure(4)
    assert row["n"] == 4 and row["sweeps"] >= 1
    assert row["offdiag_norm"] <= row["offdiag_target"]
    assert row["max_eigenvalue_err"] < 1e-10 and row["orthogonality_err"] < 1e-12
    assert not bench.OUT.exists()


def test_bench_varcluster_measures(monkeypatch, tmp_path):
    bench = load_bench(monkeypatch, tmp_path, "bench_varcluster")
    monkeypatch.setattr(bench, "MIN_S", 0.0)
    row = bench.measure(4, bench.pipeline_profiles(4, 3), 3, "l2")
    assert (row["n"], row["k"], row["metric"]) == (4, 3, "l2")
    assert row["path"] == "exact" and row["n_iterations"] is None
    assert row["timed_calls"] == bench.REPEAT
    assert not bench.OUT.exists()


def test_bench_ingest_measures(monkeypatch, tmp_path):
    bench = load_bench(monkeypatch, tmp_path, "bench_ingest")
    row = bench.measure(4)
    assert (row["n"], row["rows"], row["cells"]) == (4, bench.ROWS, 4 * bench.ROWS)
    assert row["bitwise_float"] and row["timed_loads"] == bench.REPEAT
    row = bench.measure(4, label_column="v1")
    assert (row["label_column"], row["cells"]) == ("v1", 3 * bench.ROWS)
    assert row["bitwise_float"] and row["timed_loads"] == bench.REPEAT
    assert (24, 10_000, "v1") in bench.CASES
    assert not bench.OUT.exists()


def test_bench_output_measures(monkeypatch, tmp_path):
    bench = load_bench(monkeypatch, tmp_path, "bench_output")
    row = bench.measure(4)
    assert (row["n"], row["rows"]) == (4, bench.ROWS)
    assert row["bytes_equal_dumps"] and row["json_bytes"] > 0
    assert row["timed_calls"] == bench.REPEAT
    assert not bench.OUT.exists()
