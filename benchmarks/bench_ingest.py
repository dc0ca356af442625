"""Time CSV ingest at several variable counts and at the csv_tall shape.

Run from the repository root with the package on the path:

    PYTHONPATH=src python benchmarks/bench_ingest.py --label loadtxt

For each variable count n the input is the seeded synthetic data
``bench_eigensolve.py`` solves (a 3-factor model plus unit noise, 2000
rows), written with a header row and ``%.6f`` cells; one more case has
24 variables and 10000 rows, the shape of perfbench's ``csv_tall``
workload.  A row records the best-of time of ``load_csv`` on that file
after one untimed warm-up call, and whether the values it returned are
bitwise those of ``float`` on each cell.  Results are merged into
``BENCH_ingest.json`` under ``--label``, so runs of two versions of the
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

from bench_eigensolve import ROWS, SEED, environment, factor_data
from pcageom.ingest import load_csv

OUT = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"
CASES = ((4, ROWS), (20, ROWS), (80, ROWS), (160, ROWS), (24, 10_000))
REPEAT = 5  # timed loads per case, best kept ...
BUDGET_S = 10.0  # ... but no more once a case's loads took this long


def measure(n: int, rows: int = ROWS) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        np.savetxt(path, factor_data(n, rows, SEED), fmt="%.6f", delimiter=",",
                   header=",".join(f"v{i + 1}" for i in range(n)), comments="")
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        expected = np.array([[float(cell) for cell in line.split(",")] for line in lines])
        load_csv(path, header=True)  # untimed warm-up
        times = []
        while len(times) < REPEAT and sum(times) < BUDGET_S:
            t0 = time.perf_counter()
            data = load_csv(path, header=True)
            times.append(time.perf_counter() - t0)
        file_bytes = path.stat().st_size
    return {
        "n": n,
        "rows": rows,
        "cells": int(data.values.size),
        "file_bytes": file_bytes,
        "load_s": min(times),
        "timed_loads": len(times),
        "bitwise_float": data.values.tobytes() == expected.tobytes(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", default="current", help="key the rows are stored under")
    args = parser.parse_args()

    rows = []
    for n, n_rows in CASES:
        row = measure(n, n_rows)
        rows.append(row)
        print(f"n={n:<4d} rows={n_rows:<6d} {row['load_s'] * 1e3:10.2f} ms  "
              f"bitwise_float={row['bitwise_float']}")

    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["description"] = (
        "load_csv(header=True) on a seeded 3-factor model plus noise (seed "
        f"{SEED}) written with %.6f cells: {ROWS} rows at n = 4, 20, 80, 160 and "
        f"24 variables x 10000 rows; load_s is the best of up to {REPEAT} loads "
        f"(fewer once they took {BUDGET_S} s) after one warm-up load; bitwise_float "
        "compares the values with float() on each cell"
    )
    doc.setdefault("runs", {})[args.label] = {"environment": environment(), "rows": rows}
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT} [{args.label}]")


if __name__ == "__main__":
    main()
