"""Time CSV ingest at several variable counts and at the csv_tall shape.

Run from the repository root with the package on the path:

    PYTHONPATH=src python benchmarks/bench_ingest.py --label loadtxt

For each variable count n the input is the seeded synthetic data
``bench_eigensolve.py`` solves (a 3-factor model plus unit noise, 2000
rows), written with a header row and ``%.6f`` cells; two more cases have
24 variables and 10000 rows, the shape of perfbench's ``csv_tall``
workload, the second read with ``label_column="v1"``.  A row records the
best-of time of ``load_csv`` on that file after one untimed warm-up
call, and whether the values it returned are bitwise those of ``float``
on each data cell (the label column is not data).  Results are merged into
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
CASES = ((4, ROWS, None), (20, ROWS, None), (80, ROWS, None), (160, ROWS, None),
         (24, 10_000, None), (24, 10_000, "v1"))
REPEAT = 5  # timed loads per case, best kept ...
BUDGET_S = 10.0  # ... but no more once a case's loads took this long


def measure(n: int, rows: int = ROWS, label_column: str | None = None) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        names = [f"v{i + 1}" for i in range(n)]
        np.savetxt(path, factor_data(n, rows, SEED), fmt="%.6f", delimiter=",",
                   header=",".join(names), comments="")
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        expected = np.array([[float(cell) for cell in line.split(",")] for line in lines])
        if label_column is not None:
            expected = np.delete(expected, names.index(label_column), axis=1)
        load_csv(path, label_column=label_column, header=True)  # untimed warm-up
        times = []
        while len(times) < REPEAT and sum(times) < BUDGET_S:
            t0 = time.perf_counter()
            data = load_csv(path, label_column=label_column, header=True)
            times.append(time.perf_counter() - t0)
        file_bytes = path.stat().st_size
    return {
        "n": n,
        "rows": rows,
        "label_column": label_column,
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
    for n, n_rows, label_column in CASES:
        row = measure(n, n_rows, label_column)
        rows.append(row)
        print(f"n={n:<4d} rows={n_rows:<6d} label={label_column or '-':<3s} "
              f"{row['load_s'] * 1e3:10.2f} ms  bitwise_float={row['bitwise_float']}")

    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["description"] = (
        "load_csv(header=True) on a seeded 3-factor model plus noise (seed "
        f"{SEED}) written with %.6f cells: {ROWS} rows at n = 4, 20, 80, 160 and "
        "24 variables x 10000 rows, the last also with label_column='v1' (runs "
        f"without a label_column field predate that case); load_s is the best of up "
        f"to {REPEAT} loads (fewer once they took {BUDGET_S} s) after one warm-up load; "
        "bitwise_float compares the data values with float() on each cell"
    )
    doc.setdefault("runs", {})[args.label] = {"environment": environment(), "rows": rows}
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT} [{args.label}]")


if __name__ == "__main__":
    main()
