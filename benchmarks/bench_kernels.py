"""Time the numba kernel: compiled path against the plain-Python path.

Run after installing the package:

    python benchmarks/bench_kernels.py

With numba available the script times the incomplete beta function
both compiled and through its uncompiled ``py_func``.  Under
PCAGEOM_DISABLE_NUMBA=1 the decorator is a passthrough, so only the
plain path exists and the script says so.  The eigensolver and k-means
are plain NumPy and have their own scripts,
``benchmarks/bench_eigensolve.py`` and ``benchmarks/bench_varcluster.py``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from pcageom import _jit
from pcageom.kernels import betainc_reg


def timeit(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_betainc(fn, repeat: int) -> float:
    xs = np.linspace(1e-6, 1.0 - 1e-6, 20000)

    def run():
        total = 0.0
        for x in xs:
            total += fn(74.0, 0.5, x)
        return total

    return timeit(run, repeat)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5, help="timing repetitions (best kept)")
    args = parser.parse_args()

    cases = [
        ("betainc_reg", betainc_reg, lambda f: bench_betainc(f, args.repeat)),
    ]

    if not _jit.NUMBA_ENABLED:
        print("numba is disabled or unavailable; timing the plain path only\n")
        print(f"{'kernel':<16} {'plain':>12}")
        for name, fn, bench in cases:
            print(f"{name:<16} {bench(fn) * 1e3:>10.2f}ms")
        return

    print(f"{'kernel':<16} {'compiled':>12} {'plain':>12} {'speedup':>9}")
    for name, fn, bench in cases:
        bench(fn)  # warm-up triggers compilation outside the timed runs
        fast = bench(fn)
        slow = bench(fn.py_func)
        print(f"{name:<16} {fast * 1e3:>10.2f}ms {slow * 1e3:>10.2f}ms {slow / fast:>8.1f}x")


if __name__ == "__main__":
    main()
