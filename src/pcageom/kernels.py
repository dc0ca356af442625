"""Hot numeric kernels, compiled with numba unless disabled.

Two scalar loops live here so they can be jitted: the
continued-fraction evaluation of the regularized incomplete beta
function used for correlation significance, and the point-to-centroid
assignment step of k-means.  Each function is valid nopython numba and
valid plain Python; :mod:`pcageom._jit` decides which one runs.  (The
Jacobi eigensolver is array code in :mod:`pcageom.eigensolve`.)

Distance codes for the k-means kernels: 0 = city block, 1 = squared
Euclidean, 2 = Chebyshev, 3 = cosine distance.
"""

from __future__ import annotations

import math

from ._jit import njit

__all__ = [
    "betainc_reg",
    "point_distance",
    "assign_labels",
    "DIST_L1",
    "DIST_L2",
    "DIST_LINF",
    "DIST_COSINE",
]

DIST_L1 = 0
DIST_L2 = 1
DIST_LINF = 2
DIST_COSINE = 3


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


@njit(cache=True)
def point_distance(x, c, code):
    """Distance between two vectors under the coded metric."""
    n = x.shape[0]
    if code == 0:
        s = 0.0
        for i in range(n):
            s += abs(x[i] - c[i])
        return s
    if code == 1:
        s = 0.0
        for i in range(n):
            d = x[i] - c[i]
            s += d * d
        return s
    if code == 2:
        m = 0.0
        for i in range(n):
            d = abs(x[i] - c[i])
            if d > m:
                m = d
        return m
    dot = 0.0
    nx = 0.0
    nc = 0.0
    for i in range(n):
        dot += x[i] * c[i]
        nx += x[i] * x[i]
        nc += c[i] * c[i]
    denom = math.sqrt(nx) * math.sqrt(nc)
    if denom == 0.0:
        return 1.0
    d = 1.0 - dot / denom
    if d < 0.0:
        d = 0.0
    return d


@njit(cache=True)
def assign_labels(points, centroids, code, labels):
    """Label every point with its nearest centroid; return the summed cost.

    Ties go to the lowest centroid index.  For the squared Euclidean
    code the returned cost is the usual within-cluster sum of squares;
    for the other metrics it is the plain sum of distances.
    """
    m = points.shape[0]
    kc = centroids.shape[0]
    total = 0.0
    for i in range(m):
        best = math.inf
        best_j = 0
        for j in range(kc):
            d = point_distance(points[i], centroids[j], code)
            if d < best:
                best = d
                best_j = j
        labels[i] = best_j
        total += best
    return total
