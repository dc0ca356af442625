"""Hot numeric kernel, compiled with numba unless disabled.

One scalar loop lives here so it can be jitted: the continued-fraction
evaluation of the regularized incomplete beta function used for
correlation significance.  It is valid nopython numba and valid plain
Python; :mod:`pcageom._jit` decides which one runs.  (The Jacobi
eigensolver and the k-means distances are array code, in
:mod:`pcageom.eigensolve` and :mod:`pcageom.varcluster`.)
"""

from __future__ import annotations

import math

from ._jit import njit

__all__ = ["betainc_reg"]


@njit(cache=True)
def _betacf(a, b, x, rel_tol, max_iter):
    """Continued fraction for the incomplete beta, modified Lentz scheme."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < rel_tol:
            return h
    return h


@njit(cache=True)
def betainc_reg(a, b, x):
    """Regularized incomplete beta function I_x(a, b).

    Evaluated through the modified Lentz continued fraction with
    relative tolerance 1e-12 and an iteration cap of 300, using the
    symmetry I_x(a, b) = 1 - I_{1-x}(b, a) to keep the fraction in its
    fast-converging regime.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x, 1e-12, 300) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x, 1e-12, 300) / b
