"""Time and check the Jacobi eigensolver at several matrix sizes.

Run from the repository root with the package on the path:

    PYTHONPATH=src python benchmarks/bench_eigensolve.py --label round_robin

For each size n the input is the correlation matrix of seeded synthetic
data (a 3-factor model plus unit noise, 2000 rows).  A row records the
best-of solve time of ``jacobi_eigh``, the sweeps used and the final
off-diagonal norm (from ``jacobi_sweeps`` on the same start), the worst
eigenvalue error against LAPACK's ``np.linalg.eigvalsh`` and the
orthogonality error max |U^T U - I|.  Results are merged into
``BENCH_eigensolve.json`` under ``--label``, so runs of two versions of
the package (point PYTHONPATH at the other checkout's ``src``) sit side
by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from pcageom import eigensolve

OUT = Path(__file__).resolve().parent.parent / "BENCH_eigensolve.json"
SIZES = (4, 20, 80, 160)
ROWS = 2000
SEED = 0
REPEAT = 5  # timed solves per size, best kept ...
BUDGET_S = 10.0  # ... but no more once a size's solves took this long


def factor_data(n: int, rows: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, n])
    factors = rng.standard_normal((rows, 3))
    loadings = rng.standard_normal((3, n))
    return factors @ loadings + rng.standard_normal((rows, n))


def factor_correlation(n: int, rows: int, seed: int) -> np.ndarray:
    return np.corrcoef(factor_data(n, rows, seed), rowvar=False)


def measure(n: int) -> dict:
    c = factor_correlation(n, ROWS, SEED)
    times = []
    while len(times) < REPEAT and (not times or sum(times) < BUDGET_S):
        t0 = time.perf_counter()
        w, u, _ = eigensolve.jacobi_eigh(c)
        times.append(time.perf_counter() - t0)

    work = 0.5 * (c + c.T)
    target = eigensolve.OFF_TOL_FACTOR * float(np.linalg.norm(work, "fro"))
    sweeps, off = eigensolve.jacobi_sweeps(work, np.eye(n), target)

    ref = np.linalg.eigvalsh(c)[::-1]
    return {
        "n": n,
        "solve_s": min(times),
        "timed_solves": len(times),
        "sweeps": int(sweeps),
        "offdiag_norm": float(off),
        "offdiag_target": target,
        "max_eigenvalue_err": float(np.abs(w - ref).max()),
        "orthogonality_err": float(np.abs(u.T @ u - np.eye(n)).max()),
    }


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "blas_thread_vars": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", default="current", help="key the rows are stored under")
    args = parser.parse_args()

    rows = []
    for n in SIZES:
        row = measure(n)
        rows.append(row)
        print(f"n={n:<4d} {row['solve_s'] * 1e3:10.2f} ms  sweeps={row['sweeps']:<3d} "
              f"off={row['offdiag_norm']:.1e}  eig_err={row['max_eigenvalue_err']:.1e}  "
              f"orth_err={row['orthogonality_err']:.1e}")

    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["description"] = (
        "Jacobi eigensolver on the correlation matrix of a seeded 3-factor model "
        f"({ROWS} rows, seed {SEED}); solve_s is the best of up to "
        f"{REPEAT} solves; errors are against np.linalg.eigvalsh"
    )
    doc.setdefault("runs", {})[args.label] = {"environment": environment(), "rows": rows}
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT} [{args.label}]")


if __name__ == "__main__":
    main()
