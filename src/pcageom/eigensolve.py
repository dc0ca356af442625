"""Symmetric eigendecomposition with deterministic output conventions.

The solver is a Jacobi iteration in the round-robin (parallel) order of
Brent & Luk (SIAM J. Sci. Stat. Comput. 6(1), 1985): a sweep is split
into rounds of disjoint index pairs, every pair (p, q) of the strict
upper triangle occurring exactly once per sweep (n - 1 rounds of n/2
pairs for even n, n rounds of (n - 1)/2 pairs for odd n).  Because the
pairs of a round share no index, their plane rotations commute and are
applied together as one n x n rotation matrix.  Sweeps repeat until the
off-diagonal Frobenius norm falls below 1e-12 times the Frobenius norm
of the input (at most 100 sweeps).  Jacobi is chosen over faster
tridiagonalization methods because every step is an explicit rotation,
which keeps the accumulated eigenvector basis orthogonal to machine
precision and computes small eigenvalues to high relative accuracy
(Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13(4), 1992).  The output
bytes are reproducible for a fixed BLAS thread count: the n x n
products of a round run in BLAS.  At n = 300 the eigensystem's bytes
differed between ``OPENBLAS_NUM_THREADS`` 1 and 2; up to n = 160 they
matched.

Raw eigensolvers leave eigenvalue order and eigenvector signs
arbitrary.  Three conventions pin them down here:

* eigenvalues are sorted in descending order;
* within a tie group (eigenvalues within 1e-10 of the group's first
  member) vectors are ordered by the index of their largest-magnitude
  component, ascending, so an identity input yields the identity basis;
* each eigenvector is scaled so its first component larger than 1e-9
  in magnitude is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .corrstats import CorrelationMatrix
from .errors import ConvergenceError, DataError

__all__ = [
    "EigenSystem",
    "jacobi_eigh",
    "jacobi_sweeps",
    "offdiag_norm",
    "round_robin_schedule",
    "eigen_symmetric",
    "rotation_from_eigenvectors",
]

OFF_TOL_FACTOR = 1e-12
MAX_SWEEPS = 100
TIE_TOL = 1e-10
SIGN_TOL = 1e-9
PSD_CLAMP = -1e-10


@dataclass(eq=False)
class EigenSystem:
    """Eigendecomposition of a correlation matrix, C = U diag(w) U^T.

    ``U`` holds eigenvectors in its columns; ``R = U^T`` is the rotation
    into the component basis; ``C_prime = R C R^T`` is the diagonal
    eigenvalue matrix, stored densely.
    """

    eigenvalues: np.ndarray
    U: np.ndarray
    R: np.ndarray
    C_prime: np.ndarray
    sweeps: int

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def _apply_conventions(w: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(-w, kind="stable")
    w = w[order]
    u = u[:, order]

    n = w.shape[0]
    i = 0
    while i < n:
        j = i + 1
        while j < n and w[i] - w[j] <= TIE_TOL:
            j += 1
        if j - i > 1:
            keys = [int(np.argmax(np.abs(u[:, k]))) for k in range(i, j)]
            sub = sorted(range(j - i), key=lambda t: (keys[t], t))
            u[:, i:j] = u[:, [i + t for t in sub]]
            w[i:j] = w[[i + t for t in sub]]
        i = j

    for k in range(n):
        col = u[:, k]
        big = np.nonzero(np.abs(col) > SIGN_TOL)[0]
        if big.size and col[big[0]] < 0.0:
            u[:, k] = -col
    return w, u


@lru_cache(maxsize=64)
def round_robin_schedule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair tables ``(P, Q)`` of one round-robin sweep over an n x n matrix.

    Row r of ``P`` and ``Q`` lists the pairs ``(P[r, i], Q[r, i])`` with
    ``P < Q`` rotated together in round r.  The order is the circle
    method of a round-robin tournament: index m - 1 (m = n rounded up to
    even) stays fixed while the others rotate one place per round; for
    odd n the pairs holding the padding index m - 1 = n are dropped.
    The tables are built on first use for each n and shared read-only.
    """
    m = n + n % 2
    r = np.arange(m - 1)[:, None]
    k = np.arange(1, m // 2)[None, :]
    first = np.concatenate([r, (r + k) % (m - 1)], axis=1)
    second = np.concatenate([np.full_like(r, m - 1), (r - k) % (m - 1)], axis=1)
    if n % 2:
        first, second = first[:, 1:], second[:, 1:]
    p, q = np.minimum(first, second), np.maximum(first, second)
    p.setflags(write=False)
    q.setflags(write=False)
    return p, q


def offdiag_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part of a square matrix.

    Taken over the off-diagonal entries themselves rather than as a
    difference of totals: subtracting the diagonal mass from the full
    sum of squares cancels catastrophically once the matrix is nearly
    diagonal, and would put a floor of about sqrt(eps) times the matrix
    norm under this value.
    """
    return float(np.linalg.norm(a - np.diag(np.diag(a))))


def jacobi_sweeps(a: np.ndarray, v: np.ndarray, off_target: float) -> tuple[int, float]:
    """Run round-robin Jacobi sweeps on the symmetric matrix ``a`` in place.

    Each round of :func:`round_robin_schedule` computes the plane
    rotation that zeroes ``a[p, q]`` for all of its pairs at once (a
    pair with ``a[p, q] == 0`` gets the identity), assembles them into
    one rotation matrix J and applies ``a <- J^T a J``.  The rotations
    are multiplied into the column basis ``v`` (so ``v`` converges to
    the eigenvector matrix).  Sweeping stops once the off-diagonal
    Frobenius norm drops to ``off_target`` or after ``MAX_SWEEPS`` full
    sweeps.

    Returns ``(sweeps_used, final_offdiag_norm)``.
    """
    n = a.shape[0]
    sweeps = 0
    off = offdiag_norm(a)
    # flat positions, per round: a[p, q], a[p, p], a[q, q] are read from
    # ``pick``; J[p, p], J[q, q], J[p, q], J[q, p] are written at ``place``
    pairs_p, pairs_q = round_robin_schedule(n)
    h = pairs_p.shape[1]
    at_pq, at_qp = pairs_p * n + pairs_q, pairs_q * n + pairs_p
    at_pp, at_qq = pairs_p * (n + 1), pairs_q * (n + 1)
    pick = np.concatenate([at_pq, at_pp, at_qq], axis=1)
    place = np.concatenate([at_pp, at_qq, at_pq, at_qp], axis=1)
    unit = np.concatenate([np.ones(2 * h), np.zeros(2 * h)])
    rot = np.eye(n)
    scratch = np.empty_like(a)
    while off > off_target and sweeps < MAX_SWEEPS:
        for round_pick, round_place in zip(pick, place):
            apq, app, aqq = a.take(round_pick).reshape(3, h)
            live = apq != 0.0
            if not live.any():
                continue
            theta = 0.5 * (app - aqq) / np.where(live, apq, 1.0)
            big = np.abs(theta) > 1e10
            mid = np.where(big, 0.0, theta)
            t = 1.0 / (np.abs(mid) + np.sqrt(mid * mid + 1.0))
            t = np.where(mid > 0.0, -t, t)
            t = np.where(big, -0.5 / np.where(big, theta, 1.0), t)
            t = np.where(live, t, 0.0)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            rot.put(round_place, np.concatenate([c, c, s, -s]))
            np.matmul(rot.T, a, out=scratch)
            np.matmul(scratch, rot, out=a)
            a.put(round_place[2 * h:], 0.0)
            v[...] = v @ rot
            rot.put(round_place, unit)
        sweeps += 1
        off = offdiag_norm(a)
    return sweeps, off


def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigendecomposition of a real symmetric matrix by round-robin Jacobi.

    Returns ``(w, U, sweeps)`` with eigenvalues descending and the
    output conventions above applied.  Raises ValueError for a matrix
    that is empty, not square, not symmetric or holds NaN or infinite
    entries, and ConvergenceError if the off-diagonal norm is still above
    threshold after ``MAX_SWEEPS``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"eigensolve: matrix must be square, got {a.shape}")
    if a.size == 0:
        raise ValueError("eigensolve: matrix is empty (0x0)")
    if not np.isfinite(a).all():
        raise ValueError("eigensolve: matrix has NaN or infinite entries")
    if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, float(np.max(np.abs(a)))):
        raise ValueError("eigensolve: matrix is not symmetric")

    work = 0.5 * (a + a.T)
    target = OFF_TOL_FACTOR * float(np.linalg.norm(work, "fro"))
    v = np.eye(a.shape[0])
    sweeps, off = jacobi_sweeps(work, v, target)
    if off > target:
        raise ConvergenceError(
            f"eigensolve: Jacobi did not converge in {MAX_SWEEPS} sweeps "
            f"(off-diagonal norm {off:.3e}, target {target:.3e})"
        )
    w, u = _apply_conventions(np.diag(work).copy(), v)
    return w, u, sweeps


def rotation_from_eigenvectors(u: np.ndarray) -> np.ndarray:
    """Rotation matrix R = U^T from an orthonormal eigenvector basis.

    R carries coordinates from the standard base to the eigenvector
    base: its rows are the eigenvectors.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"eigensolve: eigenvector matrix must be square, got {u.shape}")
    gram_dev = float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))
    if gram_dev > 1e-8:
        raise ValueError(
            f"eigensolve: columns are not orthonormal (max Gram deviation {gram_dev:.3e})"
        )
    return u.T.copy()


def eigen_symmetric(c: CorrelationMatrix) -> EigenSystem:
    """Eigendecomposition of a correlation matrix.

    Correlation matrices are positive semidefinite in exact arithmetic,
    so eigenvalues in [-1e-10, 0) are treated as rounding noise and
    clamped to zero; anything more negative means the input was not a
    correlation matrix and raises DataError.
    """
    w, u, sweeps = jacobi_eigh(c.r)
    if float(w[-1]) < PSD_CLAMP:
        raise DataError(
            f"eigensolve: eigenvalue {float(w[-1]):.3e} is negative beyond rounding; "
            "input is not a valid correlation matrix"
        )
    w = np.where((w < 0.0) & (w >= PSD_CLAMP), 0.0, w)
    return EigenSystem(
        eigenvalues=w,
        U=u,
        R=u.T.copy(),
        C_prime=np.diag(w),
        sweeps=sweeps,
    )
