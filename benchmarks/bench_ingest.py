"""Time CSV ingest at several variable counts and at the csv_tall shape.

Run from the repository root with the package on the path:

    PYTHONPATH=src python benchmarks/bench_ingest.py --label loadtxt

For each variable count n the input is the seeded synthetic data of
``harness.py``, written with a header row and ``%.6f`` cells; two more
cases have 24 variables and 10000 rows, the shape of perfbench's
``csv_tall`` workload, the second read with ``label_column="v1"``.  A
row records the best-of time of ``load_csv`` on that file, and whether
the values it returned are bitwise those of ``float`` on each data cell
(the label column is not data).  Results are merged into
``BENCH_ingest.json`` under ``--label``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

import harness
from pcageom.ingest import load_csv

OUT = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"
CASES = (*((n, harness.ROWS, None) for n in harness.SIZES), (24, 10_000, None), (24, 10_000, "v1"))
DESCRIPTION = (
    "load_csv(header=True) on a seeded 3-factor model plus noise (seed "
    f"{harness.SEED}) written with %.6f cells: {harness.ROWS} rows at n = 4, 20, 80, 160 and "
    "24 variables x 10000 rows, the last also with label_column='v1' (runs "
    f"without a label_column field predate that case); load_s is the {harness.RULE} "
    "(runs before harness: best of up to 5 loads after one warm-up load, no minimum "
    "time); bitwise_float compares the data values with float() on each cell"
)


def measure(n: int, rows: int = harness.ROWS, label_column: str | None = None) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        harness.write_factor_csv(path, n, rows)
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        expected = np.array([[float(cell) for cell in line.split(",")] for line in lines])
        if label_column is not None:
            expected = np.delete(expected, header.split(",").index(label_column), axis=1)
        load_s, timed, data = harness.best_of(load_csv, path, label_column=label_column, header=True)
        file_bytes = path.stat().st_size
    return {
        "n": n,
        "rows": rows,
        "label_column": label_column,
        "cells": int(data.values.size),
        "file_bytes": file_bytes,
        "load_s": load_s,
        "timed_loads": timed,
        "bitwise_float": data.values.tobytes() == expected.tobytes(),
    }


def measure_all():
    for n, n_rows, label_column in CASES:
        row = measure(n, n_rows, label_column)
        print(f"n={n:<4d} rows={n_rows:<6d} label={label_column or '-':<3s} "
              f"{row['load_s'] * 1e3:10.2f} ms  bitwise_float={row['bitwise_float']}")
        yield row


if __name__ == "__main__":
    harness.main(OUT, DESCRIPTION, measure_all(), __doc__)
