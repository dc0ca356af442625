"""Seeded data, timer and result writer of ``bench_pipeline.py``.

The data is a 3-factor model plus unit noise, ``ROWS`` rows, at
n = ``SIZES`` variables, written as CSV or as its correlation JSON.
Every timing is the best of ``best_of``'s calls under one stopping
rule, and ``main`` merges the rows into a ``BENCH_*.json`` under
``--label``, so runs of two versions of the package (point PYTHONPATH
at the other checkout's ``src``) sit side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections.abc import Iterable
from pathlib import Path

import numpy as np

SIZES = (4, 20, 80, 160)
ROWS = 2000
SEED = 0
REPEAT = 5  # timed calls, best kept: at least this many ...
MIN_S = 0.5  # ... and more until they took this long in total ...
BUDGET_S = 10.0  # ... but none once they took this long
RULE = (
    f"best of at least {REPEAT} calls and {MIN_S} s after one untimed warm-up call, "
    f"no further call once the timed calls took {BUDGET_S} s"
)


def factor_data(n: int, rows: int = ROWS) -> np.ndarray:
    rng = np.random.default_rng([SEED, n])
    factors = rng.standard_normal((rows, 3))
    loadings = rng.standard_normal((3, n))
    return factors @ loadings + rng.standard_normal((rows, n))


def write_factor_csv(path: Path, n: int, rows: int = ROWS) -> None:
    """``factor_data`` as CSV: a ``v1,…,vn`` header row and ``%.6f`` cells."""
    np.savetxt(path, factor_data(n, rows), fmt="%.6f", delimiter=",",
               header=",".join(f"v{i + 1}" for i in range(n)), comments="")


def write_factor_json(path: Path, n: int, n_obs: int) -> None:
    """The correlation of ``n_obs`` rows of ``factor_data`` as a
    correlation JSON: names ``v1,…,vn``, ``n_obs`` and ``np.corrcoef``'s
    matrix at full precision."""
    r = np.corrcoef(factor_data(n, n_obs), rowvar=False)
    doc = {"names": [f"v{i + 1}" for i in range(n)], "n_obs": n_obs, "r": r.tolist()}
    path.write_text(json.dumps(doc), encoding="utf-8")


def best_of(fn, *args, **kwargs) -> tuple[float, int, object]:
    """Best time of ``fn(*args, **kwargs)`` under ``RULE``, the calls timed
    and the last call's result."""
    fn(*args, **kwargs)
    times = []
    while (len(times) < REPEAT or sum(times) < MIN_S) and (not times or sum(times) < BUDGET_S):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return min(times), len(times), result


def linear_algebra() -> dict:
    """Name and version of the BLAS and LAPACK NumPy was built with; empty
    before NumPy 1.26, whose ``show_config`` takes no ``mode``."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:
        return {}
    return {lib: {key: deps[lib].get(key) for key in ("name", "version")}
            for lib in ("blas", "lapack") if lib in deps}


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "linear_algebra": linear_algebra(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "blas_thread_vars": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def main(out: Path, description: str, rows: Iterable[dict], doc: str) -> None:
    """Parse ``--label``, then merge ``rows`` into ``out`` under that label.

    ``rows`` is read only after the arguments are parsed, so a generator
    that measures as it yields runs nothing for ``--help``.  Every other
    label in ``out`` is kept; ``description`` replaces the file's one.
    """
    parser = argparse.ArgumentParser(description=doc, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", default="current", help="key the rows are stored under")
    args = parser.parse_args()

    rows = list(rows)
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench["description"] = description
    bench.setdefault("runs", {})[args.label] = {"environment": environment(), "rows": rows}
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} [{args.label}]")
