"""Quick self-test of the benchmark, run by ``python3 perfbench/run.py --self-test``.

On tiny versions of every workload it checks that

1. every metric BENCHMARK.json declares is emitted, with its unit, in
   both the untraced and the traced mode, and every analysis passes;
2. a tampered ``report.json`` (one eigenvalue perturbed) fails the gate;
3. a hook pointed at a name that does not exist is reported as missing
   and the traced analysis still succeeds, and a return value lacking a
   field that a count is read from is reported as missing, not counted.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import gate
import run
import spans
import worker
from workloads import WORKLOADS


def tiny(name: str):
    return WORKLOADS[name].small_twin()


def check_metrics(declared: dict) -> list[str]:
    errors = []
    for name in WORKLOADS:
        for trace in (False, True):
            with contextlib.redirect_stdout(io.StringIO()):
                record = run.run_workload(tiny(name), seed=7, seconds=0.05, trace=trace)
                line = run.emit(record, declared)
            kind = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want:
                errors.append(f"{name} trace={trace}: metrics differ: "
                              f"{sorted(set(want) ^ set(got))}")
            if not line["correct"] or line["attempted"] < 1:
                errors.append(f"{name} trace={trace}: {record['failures'][:3]}")
    return errors


def check_tamper() -> list[str]:
    work = run.WORK / "json_wide-seed7-trace0"
    refs = json.loads((work / "refs.json").read_text(encoding="utf-8"))[0]
    out = work / "cold0"
    if gate.check(out, refs, 0):
        return ["untampered cold-run output fails the gate"]
    path = out / "report.json"
    rep = json.loads(path.read_text(encoding="utf-8"))
    rep["eigen"]["eigenvalues"][0] += 1e-6
    path.write_text(json.dumps(rep), encoding="utf-8")
    if not gate.check(out, refs, 0):
        return ["report.json with a perturbed eigenvalue passes the gate"]
    return []


def check_missing_hook() -> list[str]:
    sys.path.insert(0, str(run.SRC))
    from pcageom import cli, varcluster

    bogus = spans.Hook("pcageom.varcluster", "no_such_function", "varcluster.no_such_function")
    tracer = spans.Tracer(spans.HOOKS + [bogus])
    original = varcluster.lloyd
    work = run.WORK / "kmeans_profiles-seed7-trace1"
    refs = json.loads((work / "refs.json").read_text(encoding="utf-8"))[0]
    out = work / "missing-hook"
    out.mkdir(exist_ok=True)
    argv = tiny("kmeans_profiles").argv(refs["input"], str(out), "l2")
    _, problems = worker.analyze(cli, argv, out, refs, "l2", tracer)
    errors = []
    if tracer.missing != ["pcageom.varcluster.no_such_function"]:
        errors.append(f"missing hooks reported as {tracer.missing}")
    if problems:
        errors.append(f"traced analysis with a missing hook failed: {problems}")
    if varcluster.lloyd is not original:
        errors.append("hooks were not removed")
    if tracer.metrics().get("varcluster.lloyd_runs", 0) < 1:
        errors.append("present hooks stopped recording when one was missing")

    # a return value without the field a count is read from
    renamed = spans.Tracer()
    spans._observe(renamed, "eigensolve.eigen_symmetric", object())
    if renamed.missing != ["eigensolve.eigen_symmetric.sweeps",
                           "eigensolve.eigen_symmetric.n"]:
        errors.append(f"missing result fields reported as {renamed.missing}")
    if renamed.metrics().get("eigensolve.sweeps") is not None:
        errors.append("a missing result field was counted")
    return errors


def main() -> int:
    declared = run.declared_metrics()
    errors = []
    for label, check in (("metrics", lambda: check_metrics(declared)),
                         ("tamper", check_tamper), ("missing hook", check_missing_hook)):
        found = check()
        print(f"self-test {label}: {'ok' if not found else 'FAILED'}")
        errors += found
    for e in errors:
        print("  " + e)
    return 1 if errors else 0
