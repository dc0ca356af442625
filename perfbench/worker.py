"""Child process that runs one workload as a closed loop.

    python3 perfbench/worker.py <config.json>

One caller, one ``pcageom.cli.main(["analyze", ...])`` at a time, with
stdout and stderr captured in memory.  Each analysis is gated
(``gate.check``) outside its timed region.  The loop analyses for the
configured seconds, ending at the boundary of a full rotation of
``argvs`` nearest to them, so every input and flag set in the rotation
is sampled equally often; it always completes at least ``min_analyses``.

Between analyses the worker starts fresh interpreters (cold CLI runs
and set-up probes): whenever the time spent on one kind of them falls
below its ``share`` of the time elapsed, it runs the next entry of that
kind's ``cycle``, so that they meet the same mix of quiet and busy
periods of a shared host as the warm analyses do.  Each gets a new
directory for its outputs.  Their time counts toward the configured
seconds, and a run makes at least each kind's ``min`` of them.
In the same way, ``reference_share`` of the time goes to timing the
fixed kernel of ``reference.py``, which tells how fast the host ran.

With tracing on, consecutive analyses alternate untraced and traced
with the same flags, and the spans of the traced ones are written to
``spans_path``.  The result record, including this process's peak
resident memory, is written to ``result_path``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import gate
import reference
import spans


def peak_rss_kb() -> int:
    """This process's own peak resident set size.

    ``ru_maxrss`` survives ``exec`` on Linux, so for a freshly started child
    it can report the parent's size at fork; ``VmHWM`` starts afresh with
    the new program.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_fresh(entry: dict, out_dir: Path, timeout: float) -> dict:
    """Run one fresh interpreter to completion in ``out_dir``: the cycle
    entry with its wall time and exit code."""
    out_dir.mkdir()
    cmd = [arg.replace("@DIR@", str(out_dir)) for arg in entry["argv"]]
    t = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=timeout, check=False)
    return {**entry, "dir": str(out_dir), "wall_s": time.perf_counter() - t,
            "rc": proc.returncode, "stderr": proc.stderr.decode(errors="replace")[-2000:]}


def analyze(cli, argv: list[str], out_dir: Path, ref: dict, metric, tracer=None):
    """One gated analysis: (seconds inside ``cli.main``, problems found)."""
    gate.clear_outputs(out_dir)
    sink = io.StringIO()
    if tracer is not None:
        tracer.install()
    elapsed = 0.0
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is not None:
                tracer.open("cli.main")
            t = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                rc = exc.code if isinstance(exc.code, int) else 1
            finally:
                elapsed = time.perf_counter() - t
                if tracer is not None:
                    tracer.close()
    except Exception as exc:  # a failed analysis is counted, never fatal
        return elapsed, [f"{type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.remove()
            tracer.analyses += 1
    return elapsed, gate.check(out_dir, ref, rc, metric)


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
    sys.path.insert(0, cfg["src"])
    from pcageom import cli

    try:
        from pcageom import _jit
        numba_enabled = bool(_jit.NUMBA_ENABLED)
    except (ImportError, AttributeError):
        numba_enabled = None

    refs = json.loads(Path(cfg["refs"]).read_text(encoding="utf-8"))
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    argvs, rotation = cfg["argvs"], cfg["rotation"]
    per_slot = 2 if cfg["trace"] else 1
    round_size = len(argvs) * per_slot
    tracer = spans.Tracer() if cfg["trace"] else None

    # one untimed analysis first, so lazy set-up is not counted as warm time
    _, problems = analyze(cli, argvs[0], out_dir, refs[rotation[0][0]], rotation[0][1])
    failures = ["warm-up: " + "; ".join(problems)] if problems else []
    samples: list[dict] = []
    fresh = cfg["fresh"]
    fresh_done: list[dict] = []
    spent = {kind: 0.0 for kind in fresh}
    count = {kind: 0 for kind in fresh}
    reference_s: list[float] = []
    reference_total = 0.0

    def next_fresh(kind: str) -> None:
        cycle, n = fresh[kind]["cycle"], count[kind]
        entry = {"kind": kind, **cycle[n % len(cycle)]}
        fresh_done.append(run_fresh(entry, Path(cfg["fresh_dir"]) / f"{kind}{n}",
                                    cfg["fresh_timeout"]))
        spent[kind] += fresh_done[-1]["wall_s"]
        count[kind] += 1

    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if reference_total < cfg["reference_share"] * elapsed:
            reference_s.append(reference.timed())
            reference_total += reference_s[-1]
            continue
        due = [kind for kind in fresh if spent[kind] < fresh[kind]["share"] * elapsed]
        if due:
            next_fresh(due[0])
            continue
        if i % round_size == 0 and i >= cfg["min_analyses"]:
            per_analysis = (elapsed - sum(spent.values()) - reference_total) / i
            if elapsed + 0.5 * round_size * per_analysis > cfg["seconds"]:
                break  # stop at the rotation boundary nearest the run length
        slot = (i // per_slot) % len(argvs)
        traced = tracer is not None and i % 2 == 1
        ref_index, metric = rotation[slot]
        seconds, problems = analyze(cli, argvs[slot], out_dir, refs[ref_index], metric,
                                    tracer if traced else None)
        if problems:
            failures.append(f"analysis {i}: " + "; ".join(problems))
        else:
            samples.append({"slot": slot, "seconds": seconds, "traced": traced})
        i += 1
    for kind in fresh:
        while count[kind] < fresh[kind]["min"]:
            next_fresh(kind)

    result = {
        "attempted": i + 1,
        "failed": len(failures),
        "failures": failures[:20],
        "samples": samples,
        "peak_rss_kb": peak_rss_kb(),
        "numba_enabled": numba_enabled,
        "fresh": fresh_done,
        "reference_s": reference_s,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["missing"] = tracer.missing
        Path(cfg["spans_path"]).write_text(json.dumps({
            "fields": ["analysis", "index", "parent", "name", "start_s", "end_s", "self_s"],
            "spans": tracer.spans,
            "missing": tracer.missing,
        }), encoding="utf-8")
    Path(cfg["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
