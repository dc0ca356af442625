"""Time the report's output stage at several variable counts.

Run from the repository root with the package on the path:

    PYTHONPATH=src python benchmarks/bench_output.py --label writer

For each variable count n the input is the seeded synthetic data of
``harness.py``, written with a header row and ``%.6f`` cells and
analyzed once with ``run_analysis``.  A row records the best-of times of
``to_json_text``, of ``json.dumps(indent=2, sort_keys=True)`` on the same
report and of ``render_markdown``; the size of ``report.json`` in bytes;
and whether ``to_json_text`` gave exactly ``json.dumps``'s text plus a
newline.  Results are merged into ``BENCH_output.json`` under
``--label``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import harness
from pcageom.report import render_markdown, run_analysis, to_json_text

OUT = Path(__file__).resolve().parent.parent / "BENCH_output.json"
DESCRIPTION = (
    "output stage on the run_analysis(header=True) report of a seeded 3-factor "
    f"model plus noise (seed {harness.SEED}, {harness.ROWS} rows, %.6f cells) at n = "
    f"{', '.join(map(str, harness.SIZES))}; each *_s is the {harness.RULE} (runs dumps "
    "and writer: best of up to 5 calls after one warm-up call, no minimum time); "
    "json_dumps_s times json.dumps(indent=2, sort_keys=True); bytes_equal_dumps says "
    "whether to_json_text returned exactly that text plus a newline"
)


def dumps_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def measure(n: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        harness.write_factor_csv(path, n)
        report = run_analysis(path, header=True).report
    to_json_s, timed_calls, text = harness.best_of(to_json_text, report)
    return {
        "n": n,
        "rows": harness.ROWS,
        "to_json_text_s": to_json_s,
        "json_dumps_s": harness.best_of(dumps_text, report)[0],
        "render_markdown_s": harness.best_of(render_markdown, report)[0],
        "timed_calls": timed_calls,
        "json_bytes": len(text.encode("utf-8")),
        "bytes_equal_dumps": text == dumps_text(report),
    }


def measure_all():
    for n in harness.SIZES:
        row = measure(n)
        print(f"n={n:<4d} to_json_text {row['to_json_text_s'] * 1e3:8.2f} ms  "
              f"json.dumps {row['json_dumps_s'] * 1e3:8.2f} ms  "
              f"render_markdown {row['render_markdown_s'] * 1e3:8.2f} ms  "
              f"{row['json_bytes']:>9d} B  bytes_equal_dumps={row['bytes_equal_dumps']}")
        yield row


if __name__ == "__main__":
    harness.main(OUT, DESCRIPTION, measure_all(), __doc__)
