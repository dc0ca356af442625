"""pcageom benchmark: end-to-end and per-layer metrics of ``pcageom analyze``.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root; the package is imported from ``src/``.
Each run generates its input from ``--seed`` under ``.perfbench/``,
runs the workload as a closed loop in a child process (one caller, one
analysis at a time, BLAS threads capped at the CPU count), gates every
analysis, and prints a human-readable block followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of
BENCHMARK.json, with ``--trace 1`` the ``per_layer`` list.  Metric
names and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import gate
import inputs
import reference
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_ANALYSES = 12  # enough for a tail percentile with 10 samples beyond it
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60
# Shares of a run spent in fresh interpreters: cold `python -m pcageom.cli
# analyze` processes, and set-up probes (import probes when traced).
# Whatever the shares, a run makes at least MIN_COLD_PER_SLOT cold runs of
# every cold slot and MIN_PROBES probes.
COLD_SHARE = 0.35
PROBE_SHARE = 0.05
MIN_COLD_PER_SLOT = 3
MIN_PROBES = 7
REFERENCE_SHARE = 0.05  # share of a run spent timing reference.kernel


class BenchError(RuntimeError):
    pass


def declared_metrics() -> dict[str, list[dict]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": doc["end_to_end"], "per_layer": doc["per_layer"]}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(numba_enabled) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_enabled": numba_enabled,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "blas_threads": {v: child_env()[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                     "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def run_child(cmd: list[str], cwd: Path, timeout: float) -> None:
    """Run a benchmark script in a fresh interpreter; its failure is ours."""
    proc = subprocess.run(cmd, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    Runs take at least 11 samples; only when failed analyses leave fewer
    is the maximum reported instead."""
    ordered = sorted(times)
    idx = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def iqm(values: list[float]) -> float:
    """Interquartile mean: the mean of the middle half of the values."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def read_probe(run: dict, path: Path) -> dict:
    if run["rc"] != 0:
        raise BenchError(f"probe.py exited {run['rc']}: {run['stderr']}")
    return json.loads(path.read_text(encoding="utf-8"))


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "out"
    out_dir.mkdir(parents=True)
    refs = [inputs.build(workload, seed, j, work, SRC / "pcageom" / "fixtures")
            for j in range(workload.n_inputs)]
    (work / "refs.json").write_text(json.dumps(refs), encoding="utf-8")
    rotation = [workload.slot(i) for i in range(workload.round_size)]
    argvs = [workload.argv(refs[j]["input"], str(out_dir), m) for j, m in rotation]
    # fresh-interpreter runs by kind: the worker repeats each kind's cycle,
    # with "@DIR@" replaced by a new directory for each run
    probe = [sys.executable, str(HERE / "probe.py"), str(SRC), "@DIR@/probe.json"]
    if not trace:
        twin = workload.small_twin()
        twin_refs = inputs.build(twin, seed, 0, work / "twin", SRC / "pcageom" / "fixtures")
        cold_cycle = [{"slot": slot, "argv": [
            sys.executable, "-m", "pcageom.cli",
            *workload.argv(refs[rotation[slot][0]]["input"], "@DIR@", rotation[slot][1])]}
            for slot in workload.cold_slots()]
        setup_cycle = [{"metric": twin.slot(p)[1], "argv": [
            *probe, *twin.argv(twin_refs["input"], "@DIR@", twin.slot(p)[1])]}
            for p in range(twin.round_size)]
        fresh = {"cold": {"share": COLD_SHARE, "min": MIN_COLD_PER_SLOT * len(cold_cycle),
                          "cycle": cold_cycle},
                 "setup": {"share": PROBE_SHARE, "min": MIN_PROBES, "cycle": setup_cycle}}
    else:
        fresh = {"import": {"share": PROBE_SHARE, "min": MIN_PROBES, "cycle": [{"argv": probe}]}}

    config = {
        "src": str(SRC), "refs": str(work / "refs.json"), "out_dir": str(out_dir),
        "argvs": argvs, "rotation": rotation, "trace": trace, "seconds": seconds,
        # at least two passes over the rotation, so one slow analysis of a
        # long rotation cannot move the median on its own
        "min_analyses": max(MIN_ANALYSES, 2 * len(argvs)), "result_path": str(work / "worker.json"),
        "spans_path": str(work / "spans.json"),
        "fresh": fresh, "fresh_dir": str(work), "fresh_timeout": PROBE_TIMEOUT_S,
        "reference_share": REFERENCE_SHARE,
    }
    (work / "worker_config.json").write_text(json.dumps(config), encoding="utf-8")
    run_child([sys.executable, str(HERE / "worker.py"), str(work / "worker_config.json")],
              work, WORKER_TIMEOUT_S)
    res = json.loads((work / "worker.json").read_text(encoding="utf-8"))
    attempted = res["attempted"]
    failures: list[str] = []  # one entry per analysis this process saw fail

    untraced = [s for s in res["samples"] if not s["traced"]]
    times = [s["seconds"] for s in untraced]
    if not times:
        raise BenchError("no analysis passed the gate: " + "; ".join(res["failures"][:3]))
    p50 = statistics.median(times)
    record = {
        "workload": workload.name, "why": workload.why, "stresses": workload.stresses,
        "seed": seed, "trace": trace,
        "seconds": seconds, "inputs_sha256": {Path(r["input"]).name: r["sha256"] for r in refs},
        "tolerances": gate.TOLERANCES, "environment": environment(res["numba_enabled"]),
    }
    values: dict[str, float] = {}

    ran: dict[str, list[dict]] = {"cold": [], "setup": [], "import": []}
    for run in res["fresh"]:
        ran[run["kind"]].append(run)
    if not trace:
        tail_s, tail_pct = tail(times)
        by_slot: dict[tuple, list[float]] = {}
        for run in ran["cold"]:
            j, metric = rotation[run["slot"]]
            problems = gate.check(Path(run["dir"]), refs[j], run["rc"], metric)
            if problems:
                failures.append(f"{Path(run['dir']).name}: " + "; ".join(problems))
            by_slot.setdefault((j, metric), []).append(run["wall_s"])
        imports, excess = [], []
        for run in ran["setup"]:
            name = Path(run["dir"]).name
            probe_rec = read_probe(run, Path(run["dir"]) / "probe.json")
            imports.append(probe_rec["import_s"])
            excess.append(probe_rec["first_s"] - probe_rec["second_s"])
            if probe_rec["first_rc"] != 0:
                failures.append(f"{name} first call: exit code {probe_rec['first_rc']}")
            problems = gate.check(Path(run["dir"]), twin_refs, probe_rec["second_rc"],
                                  run["metric"])
            if problems:
                failures.append(f"{name}: " + "; ".join(problems))
        attempted += len(ran["cold"]) + 2 * len(ran["setup"])
        # The host's speed changes from minute to minute, and with it every
        # raw time.  Warm times are scaled by the fixed kernel of
        # reference.py, timed in the same process interleaved with the
        # analyses: the same statistic of both cancels the host's speed, and
        # the result reads as seconds on a host where the kernel takes
        # reference.NOMINAL_S.  Cold runs are scaled the same way; set-up
        # probes are reported raw, since scaling made them noisier.
        kernel = res["reference_s"]
        ref_tail = sorted(kernel)[max(0, round(tail_pct / 100 * len(kernel)) - 1)]
        warm_by_slot: dict[int, list[float]] = {}
        for sample in untraced:
            warm_by_slot.setdefault(sample["slot"], []).append(sample["seconds"])
        setups = [i + e for i, e in zip(imports, excess)]
        values = {
            # mean over the rotation's slots, which differ in their work, of
            # each slot's interquartile mean: a median of this host's
            # two-mode times flips between the modes from run to run
            "analysis_s_iqm": statistics.fmean(iqm(v) for v in warm_by_slot.values())
            * reference.NOMINAL_S / iqm(kernel),
            # analyses per second of time spent inside cli.main; the loop's
            # wall time would also count the gate and the fresh processes
            "analyses_per_s": len(times) / sum(times) * statistics.fmean(kernel)
            / reference.NOMINAL_S,
            # scaled by the kernel's time at the same percentile
            "analysis_s_tail": tail_s * reference.NOMINAL_S / ref_tail,
            # mean over the cold slots, which differ in their work, of each
            # slot's mean fresh process; with a dozen or two per run, their
            # median flips between a fast and a slow mode of the host
            "cold_analysis_s": statistics.fmean(statistics.fmean(v) for v in by_slot.values())
            * reference.NOMINAL_S / statistics.fmean(kernel),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            "analysis_s_p50": p50 * reference.NOMINAL_S / statistics.median(kernel),
            "raw_analysis_s_p50": p50,
            "raw_cold_analysis_s": statistics.fmean(statistics.fmean(v) for v in by_slot.values()),
            "raw_analysis_s_tail": tail_s,
            "raw_analyses_per_s": len(times) / sum(times),
            "reference_s_p50": statistics.median(kernel),
        }
        record["reference"] = {"nominal_s": reference.NOMINAL_S, "samples": len(kernel)}
        record["tail"] = {"percentile": tail_pct, "samples": len(times)}
        record["setup"] = {"import_s": imports, "first_call_excess_s": excess,
                           "cold_analysis_s": {
                               f"input{j}" + (f"-{m}" if m else ""): v
                               for (j, m), v in by_slot.items()}}
    else:
        traced = [s["seconds"] for s in res["samples"] if s["traced"]]
        imports = [read_probe(run, Path(run["dir"]) / "probe.json")["import_s"]
                   for run in ran["import"]]
        values = dict(res["trace"])
        values.update({
            "cli.import_s": statistics.median(imports),
            "trace.overhead_s": statistics.median(traced) - p50,
            "trace.missing_hooks": float(len(res["missing"])),
        })
        record["p50_s"] = {"traced": statistics.median(traced), "untraced": p50}
        record["missing_hooks"] = res["missing"]
        record["spans_file"] = str((work / "spans.json").relative_to(ROOT))
        record["samples"] = {"traced": len(traced), "untraced": len(times)}

    failed = res["failed"] + len(failures)
    record.update({"attempted": attempted, "failed": failed,
                   "failures": (res["failures"] + failures)[:20],
                   "failed_fraction": failed / attempted, "all_values": values})
    return record


def emit(record: dict, declared: dict) -> dict:
    """Select the declared metrics, print the human block, return the JSON line."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    metrics = {}
    for spec in declared[kind]:
        value = record["all_values"].get(spec["name"])
        if value is None:
            if kind == "end_to_end":
                raise BenchError(f"metric {spec['name']} was not measured")
            value = 0.0  # layer not reached on this workload
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}

    print(f"== {record['workload']} seed={record['seed']} trace={int(record['trace'])}")
    for name, digest in record["inputs_sha256"].items():
        print(f"   input {name} sha256={digest}")
    print("   environment: " + json.dumps(record["environment"], sort_keys=True))
    for name, m in metrics.items():
        print(f"   {name:<36} {m['value']:.6g} {m['unit']}")
    for name in sorted(set(record["all_values"]) - set(metrics)):
        print(f"   {name:<36} {record['all_values'][name]:.6g} (result record only)")
    print(f"   {'failed_fraction':<36} {record['failed_fraction']:.6g} 1 "
          f"({record['failed']} of {record['attempted']} analyses)")
    if "tail" in record:
        print(f"   analysis_s_tail is p{record['tail']['percentile']:.1f} "
              f"of {record['tail']['samples']} samples")
    if record["trace"]:
        v = record["all_values"]
        shares = sorted(((v[f"{layer}.self_s"], layer) for layer in spans.LAYERS), reverse=True)
        print(f"   built to stress: {record['stresses']}; self time by layer, share of cli.main_s: " + ", ".join(
            f"{layer} {t / v['cli.main_s']:.1%}" for t, layer in shares))
        print(f"   tracing overhead {record['all_values']['trace.overhead_s']:.6g} s per analysis; "
              f"missing hooks: {record['missing_hooks'] or 'none'}; spans in {record['spans_file']}")
    for line in record["failures"]:
        print("   FAILED " + line)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true", help="quick check of the benchmark itself")
    args = ap.parse_args(argv)

    if not (SRC / "pcageom" / "cli.py").is_file():
        print(f"perfbench: no pcageom sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")

    declared = declared_metrics()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    try:
        for name in names:
            record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            lines[name] = emit(record, declared)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
