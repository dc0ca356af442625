"""Time ``pcageom analyze`` end to end and stage by stage.

Run from the repository root with the package on the path:

    PYTHONPATH=src python benchmarks/bench_pipeline.py --label pipeline

Every row is one ``pcageom.cli.main(["analyze", ...])`` configuration,
writing its report files into a temporary directory:

* for each n in ``harness.SIZES``, the seeded synthetic data of
  ``harness.py`` clustered by k-means into min(12, n - 1) clusters,
  once per metric;
* the csv_tall shape, 24 variables x 10000 rows with naive clusters,
  once without and once with ``--label-column v1``;
* the json_wide shape, the correlation JSON of the same model at 48
  variables and ``n_obs`` 500, with naive clusters;
* the bundled iris CSV with the iris_small flags.

A row holds the best-of end-to-end time of untraced calls; the minimum
over traced calls of every span of ``perfbench/spans.py``'s ``Tracer``
(it wraps each stage ``report`` and ``cli`` call) and of the time
outside the outermost spans (argument parsing and file writes); the
hooks the tracer could not find; for k-means rows, ``exact`` and
``objective`` from the written ``report.json``; and SHA-256 digests of
that report and of ``report.md``, each with its input path cut to the
file name, so two ``--label`` runs show whether their outputs match.
Rows are merged into ``BENCH_pipeline.json`` under ``--label``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import harness
from pcageom import cli
from pcageom.fixtures import fixture_path
from pcageom.varcluster import METRICS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_pipeline.json"
MAX_CLUSTERS = 12
TALL_SHAPE = (24, 10_000)  # variables, rows
TALL_FLAGS = ("--header", "--clusters", "naive", "--format", "csv")
JSON_SHAPE = (48, 500)  # variables, n_obs
JSON_FLAGS = ("--clusters", "naive")
IRIS_FLAGS = ("--columns", "1-4", "--header", "--clusters", "kmeans")
OUTSIDE = "outside_spans"


def _load_spans():
    # by file path, so perfbench/ never joins sys.path; the dataclasses in
    # spans.py need their module registered under some name
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load_spans()

DESCRIPTION = (
    "pcageom.cli.main(['analyze', ...]) with report files written to a temporary "
    f"directory: a seeded 3-factor model plus noise (seed {harness.SEED}, "
    f"{harness.ROWS} rows, %.6f cells) at n = {', '.join(map(str, harness.SIZES))} "
    f"with --clusters kmeans --k min({MAX_CLUSTERS}, n - 1) under each metric; the "
    f"same model at {TALL_SHAPE[0]} variables x {TALL_SHAPE[1]} rows with "
    f"{' '.join(TALL_FLAGS)}, without and with --label-column v1; the correlation "
    f"JSON (np.corrcoef) of the same model at {JSON_SHAPE[0]} variables and n_obs "
    f"{JSON_SHAPE[1]} with {' '.join(JSON_FLAGS)}; and the bundled "
    f"iris.csv with {' '.join(IRIS_FLAGS)}. analysis_s is the {harness.RULE}, "
    "untraced; stages_s holds the minimum over every traced call (the same rule, "
    "warm-up included) of each perfbench/spans.py span, inclusive of nested spans, "
    f"and of {OUTSIDE}, the call's time outside its outermost spans (argument "
    "parsing and file writes); missing lists the hooks the tracer could not find; "
    "report_sha256 and markdown_sha256 digest report.json and report.md with their "
    "input path cut to the file name"
)


def analyze(argv: list[str]) -> None:
    """``pcageom analyze`` in this process, its output discarded."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"analyze {argv} exited {rc}: {err.getvalue()}")


def stage_times(argv: list[str]) -> tuple[dict[str, float], int, list[str]]:
    """Minimum over traced analyses of every span and of the time outside
    the outermost spans (argument parsing and file writes), the traced
    calls timed, and the hooks the tracer could not find."""
    best: dict[str, float] = {}

    def traced() -> list[str]:
        tracer = spans.Tracer()
        try:
            tracer.install()
            t0 = time.perf_counter()
            analyze(argv)
            total = time.perf_counter() - t0
        finally:
            tracer.remove()
        outermost = sum(end - start for _, _, parent, _, start, end, _ in tracer.spans
                        if parent is None)
        for name, seconds in (*tracer.inclusive.items(), (OUTSIDE, total - outermost)):
            best[name] = min(seconds, best.get(name, seconds))
        return tracer.missing

    _, calls, missing = harness.best_of(traced)
    return dict(sorted(best.items())), calls, missing


def measure(input_path: Path, flags: tuple[str, ...], **case) -> dict:
    """One row: ``analyze input_path *flags`` timed untraced and traced."""
    with tempfile.TemporaryDirectory() as out:
        argv = ["analyze", str(input_path), *flags, "--out", out]
        analysis_s, timed_calls, _ = harness.best_of(analyze, argv)
        stages_s, traced_calls, missing = stage_times(argv)
        report = json.loads(Path(out, "report.json").read_text(encoding="utf-8"))
        markdown = Path(out, "report.md").read_text(encoding="utf-8")
    row = {
        **case,
        "flags": list(flags),
        "analysis_s": analysis_s,
        "timed_calls": timed_calls,
        "stages_s": stages_s,
        "traced_calls": traced_calls,
        "missing": missing,
    }
    clusters = report["clusters"]
    if clusters["method"] == "kmeans":
        row["exact"], row["objective"] = clusters["exact"], clusters["objective"]
    given = report["provenance"]["input"]
    report["provenance"]["input"] = name = Path(given).name
    row["report_sha256"] = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    markdown = markdown.replace(f"- input: `{given}`", f"- input: `{name}`", 1)
    row["markdown_sha256"] = hashlib.sha256(markdown.encode()).hexdigest()
    return row


def kmeans_flags(n: int, metric: str) -> tuple[str, ...]:
    return ("--header", "--clusters", "kmeans", "--k", str(min(MAX_CLUSTERS, n - 1)),
            "--metric", metric)


def show(row: dict) -> dict:
    stages = sorted(((s, name) for name, s in row["stages_s"].items()
                     if name not in ("report.run_analysis", OUTSIDE)), reverse=True)[:3]
    print(f"{row['case']:<16s} {row['analysis_s'] * 1e3:9.2f} ms  largest spans: "
          + ", ".join(f"{name} {s * 1e3:.2f}" for s, name in stages))
    return row


def measure_all():
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp, "data.csv")
        for n in harness.SIZES:
            harness.write_factor_csv(data, n)
            for metric in METRICS:
                yield show(measure(data, kmeans_flags(n, metric), case=f"n={n} {metric}",
                                   n=n, rows=harness.ROWS, metric=metric))
        n, rows = TALL_SHAPE
        harness.write_factor_csv(data, n, rows)
        for label in (None, "v1"):
            flags = TALL_FLAGS if label is None else (*TALL_FLAGS, "--label-column", label)
            yield show(measure(data, flags, case=f"tall {label or 'unlabelled'}",
                               n=n, rows=rows, label_column=label))
        n, n_obs = JSON_SHAPE
        corr = Path(tmp, "corr.json")
        harness.write_factor_json(corr, n, n_obs)
        yield show(measure(corr, JSON_FLAGS, case=f"json n={n}", n=n, n_obs=n_obs))
    yield show(measure(fixture_path("iris.csv"), IRIS_FLAGS, case="iris", n=4, rows=150))


if __name__ == "__main__":
    harness.main(OUT, DESCRIPTION, measure_all(), __doc__)
