"""Time the report's output stage at several variable counts.

Run from the repository root with the package on the path:

    PYTHONPATH=src python benchmarks/bench_output.py --label writer

For each variable count n the input is the seeded synthetic data
``bench_eigensolve.py`` solves (a 3-factor model plus unit noise, 2000
rows), written with a header row and ``%.6f`` cells and analyzed once
with ``run_analysis``.  A row records the best-of times of
``to_json_text``, of ``json.dumps(indent=2, sort_keys=True)`` on the same
report and of ``render_markdown``, each after one untimed warm-up call;
the size of ``report.json`` in bytes; and whether ``to_json_text`` gave
exactly ``json.dumps``'s text plus a newline.  Results are merged into
``BENCH_output.json`` under ``--label``, so runs of two versions of the
package (point PYTHONPATH at the other checkout's ``src``) sit side by
side.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_eigensolve import ROWS, SEED, SIZES, environment, factor_data
from pcageom.report import render_markdown, run_analysis, to_json_text

OUT = Path(__file__).resolve().parent.parent / "BENCH_output.json"
REPEAT = 5  # timed calls per function and size, best kept ...
BUDGET_S = 10.0  # ... but no more once a function's calls took this long


def dumps_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def best_of(fn, report: dict) -> tuple[float, int]:
    """Best time of ``fn(report)`` after one warm-up call, and the calls timed."""
    fn(report)
    times = []
    while len(times) < REPEAT and sum(times) < BUDGET_S:
        t0 = time.perf_counter()
        fn(report)
        times.append(time.perf_counter() - t0)
    return min(times), len(times)


def measure(n: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        np.savetxt(path, factor_data(n, ROWS, SEED), fmt="%.6f", delimiter=",",
                   header=",".join(f"v{i + 1}" for i in range(n)), comments="")
        report = run_analysis(path, header=True).report
    text = to_json_text(report)
    to_json_s, timed_calls = best_of(to_json_text, report)
    return {
        "n": n,
        "rows": ROWS,
        "to_json_text_s": to_json_s,
        "json_dumps_s": best_of(dumps_text, report)[0],
        "render_markdown_s": best_of(render_markdown, report)[0],
        "timed_calls": timed_calls,
        "json_bytes": len(text.encode("utf-8")),
        "bytes_equal_dumps": text == dumps_text(report),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", default="current", help="key the rows are stored under")
    args = parser.parse_args()

    rows = []
    for n in SIZES:
        row = measure(n)
        rows.append(row)
        print(f"n={n:<4d} to_json_text {row['to_json_text_s'] * 1e3:8.2f} ms  "
              f"json.dumps {row['json_dumps_s'] * 1e3:8.2f} ms  "
              f"render_markdown {row['render_markdown_s'] * 1e3:8.2f} ms  "
              f"{row['json_bytes']:>9d} B  bytes_equal_dumps={row['bytes_equal_dumps']}")

    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["description"] = (
        "output stage on the run_analysis(header=True) report of a seeded 3-factor "
        f"model plus noise (seed {SEED}, {ROWS} rows, %.6f cells) at n = "
        f"{', '.join(map(str, SIZES))}; each *_s is the best of up to {REPEAT} calls "
        f"(fewer once they took {BUDGET_S} s) after one warm-up call; json_dumps_s "
        "times json.dumps(indent=2, sort_keys=True); bytes_equal_dumps says whether "
        "to_json_text returned exactly that text plus a newline"
    )
    doc.setdefault("runs", {})[args.label] = {"environment": environment(), "rows": rows}
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT} [{args.label}]")


if __name__ == "__main__":
    main()
