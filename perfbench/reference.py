"""Fixed reference kernel that measures how fast the host runs right now.

A shared host changes speed for minutes at a time: one pure-Python loop
was seen to take 13 ms in one hour and 23 ms in the next.  The worker
times ``kernel()`` between analyses, in its own process, and the
benchmark reports a warm analysis time as

    raw time * NOMINAL_S / kernel time

with the same statistic of both over the same run (interquartile mean
for latency, mean for throughput and cold runs).  It reads as seconds
on a host where the kernel takes ``NOMINAL_S``, whichever phase the run
fell into.  The kernel mixes what pcageom spends its time on --
interpreted loops, many small NumPy calls, string parsing and a pass
over a few hundred kilobytes -- and shares no code with it, so no
change to pcageom can move it.  It must never change: a changed kernel
rescales every figure measured after it.
"""

from __future__ import annotations

import time

import numpy as np

# about the kernel's median on a two-vCPU Intel Xeon host; it only sets the
# scale of the reported seconds
NOMINAL_S = 0.003

_TEXT = ",".join(f"{i * 0.37:.6f}" for i in range(1000))
_BIG = np.linspace(0.0, 1.0, 1 << 16)


def kernel() -> float:
    s = 0
    for i in range(15000):
        s += i * i % 7
    a = np.arange(64.0)
    b = a[::-1].copy()
    for _ in range(300):
        a = a * 0.5 + b * 0.25
    s += len([float(v) for v in _TEXT.split(",")])
    return s + float(np.sum(np.sqrt(_BIG * 3.0 + a[0])))


def timed() -> float:
    """Wall time of one kernel call."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t
