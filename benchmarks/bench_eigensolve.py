"""Time and check the certified eigensolver at several matrix sizes.

Run from the repository root with the package on the path:

    PYTHONPATH=src python benchmarks/bench_eigensolve.py --label lapack

For each size n the input is the correlation matrix of the seeded
synthetic data of ``harness.py``.  A row records the best-of solve time
of ``symmetric_eigh``, the certificate (the off-diagonal norm of
U^T A U beside the target it must not exceed), the worst eigenvalue
error against ``np.linalg.eigvalsh`` and the orthogonality error
max |U^T U - I|.  Results are merged into ``BENCH_eigensolve.json``
under ``--label``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import harness
from pcageom import eigensolve

OUT = Path(__file__).resolve().parent.parent / "BENCH_eigensolve.json"
DESCRIPTION = (
    "Eigensolver on the correlation matrix of a seeded 3-factor model "
    f"({harness.ROWS} rows, seed {harness.SEED}); runs cyclic_parent, round_robin "
    "and harness are the Jacobi solvers this package used to have (with a sweeps "
    "count), run lapack is np.linalg.eigh certified by the off-diagonal test; "
    f"solve_s is the {harness.RULE} (runs cyclic_parent and round_robin: best of "
    "up to 5 solves with no warm-up and no minimum time); errors are against "
    "np.linalg.eigvalsh"
)


def measure(n: int) -> dict:
    c = harness.factor_correlation(n)
    solve_s, timed, (w, u) = harness.best_of(eigensolve.symmetric_eigh, c)

    work = 0.5 * (c + c.T)
    target = eigensolve.OFF_TOL_FACTOR * float(np.linalg.norm(work, "fro"))

    ref = np.linalg.eigvalsh(c)[::-1]
    return {
        "n": n,
        "solve_s": solve_s,
        "timed_solves": timed,
        "offdiag_norm": eigensolve.offdiag_norm(u.T @ work @ u),
        "offdiag_target": target,
        "max_eigenvalue_err": float(np.abs(w - ref).max()),
        "orthogonality_err": float(np.abs(u.T @ u - np.eye(n)).max()),
    }


def measure_all():
    for n in harness.SIZES:
        row = measure(n)
        print(f"n={n:<4d} {row['solve_s'] * 1e3:10.2f} ms  "
              f"off={row['offdiag_norm']:.1e}  eig_err={row['max_eigenvalue_err']:.1e}  "
              f"orth_err={row['orthogonality_err']:.1e}")
        yield row


if __name__ == "__main__":
    harness.main(OUT, DESCRIPTION, measure_all(), __doc__)
