"""Symmetric eigendecomposition with deterministic output conventions.

LAPACK does the decomposition: ``np.linalg.eigh`` returns the
eigenvector basis V.  The off-diagonal test of a Jacobi solver
certifies it: D = V^T A V must have an off-diagonal Frobenius norm of at
most 1e-12 times the Frobenius norm of A, or ConvergenceError is
raised.  The eigenvalues are the diagonal of D, the Rayleigh quotients
of the computed vectors, accurate to a few ulps of ||A|| in absolute
terms.

Neither this solver nor the round-robin Jacobi solver it replaced gives
relative accuracy for eigenvalues below about 1e-10.  Jacobi computes
small eigenvalues to high relative accuracy (Demmel & Veselic, SIAM J.
Matrix Anal. Appl. 13(4), 1992) only under a relative stopping rule,
and the old solver stopped on the absolute target above.  On 30 x 30
correlation matrices with one eigenvalue of 8.3e-13 (three seeds of the
prescribed-spectrum generator in the tests), its relative error on that
eigenvalue was 1.0e-4 to 3.2e-4 against a 40-digit mpmath reference,
and that of these Rayleigh quotients 1.1e-5 to 3.4e-5.

The output bytes are reproducible for a fixed BLAS thread count.
Between ``OPENBLAS_NUM_THREADS`` 1 and 2, ``np.linalg.eigh`` gave equal
bytes at n = 200 and different ones at n = 240 (eigenvalues moved by
up to 7e-14), so reports of more than 200 variables can differ in
their last digits between thread counts.  Full reports at n = 160 are
checked to be equal.

Raw eigensolvers leave eigenvalue order and eigenvector signs
arbitrary.  Three conventions pin them down here:

* eigenvalues are sorted in descending order;
* within a tie group (eigenvalues within 1e-10 times the magnitude of
  the group's first member; relative, so distinct eigenvalues far below
  1e-10 are not grouped out of order) vectors are ordered by the index
  of their largest-magnitude component, ascending, so an identity input
  yields the identity basis;
* each eigenvector is scaled so its first component larger than 1e-9
  in magnitude is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrstats import CorrelationMatrix
from .errors import ConvergenceError, DataError

__all__ = [
    "EigenSystem",
    "offdiag_norm",
    "symmetric_eigh",
    "eigen_symmetric",
]

OFF_TOL_FACTOR = 1e-12
TIE_TOL = 1e-10
SIGN_TOL = 1e-9
PSD_CLAMP = -1e-10


@dataclass(eq=False)
class EigenSystem:
    """Eigendecomposition of a correlation matrix, C = U diag(w) U^T.

    ``U`` holds eigenvectors in its columns; ``R = U^T`` is the rotation
    into the component basis, in which C becomes ``diag(eigenvalues)``.
    """

    eigenvalues: np.ndarray
    U: np.ndarray
    R: np.ndarray

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
        while j < n and w[i] - w[j] <= TIE_TOL * abs(w[i]):
            j += 1
        if j - i > 1:
            keys = [int(np.argmax(np.abs(u[:, k]))) for k in range(i, j)]
            sub = sorted(range(j - i), key=lambda t: (keys[t], t))
            u[:, i:j] = u[:, [i + t for t in sub]]
            w[i:j] = w[[i + t for t in sub]]
        i = j

    # a unit column always has a component above SIGN_TOL
    first = np.argmax(np.abs(u) > SIGN_TOL, axis=0)
    u[:, u[first, np.arange(n)] < 0.0] *= -1.0
    return w, u


def offdiag_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part of a square matrix.

    Taken over the off-diagonal entries themselves rather than as a
    difference of totals: subtracting the diagonal mass from the full
    sum of squares cancels catastrophically once the matrix is nearly
    diagonal, and would put a floor of about sqrt(eps) times the matrix
    norm under this value.
    """
    return float(np.linalg.norm(a - np.diag(np.diag(a))))


def symmetric_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified eigendecomposition of a real symmetric matrix.

    Returns ``(w, U)`` with eigenvalues descending and the output
    conventions above applied.  Raises ValueError for a matrix that is
    empty, not square, not symmetric or holds NaN or infinite entries,
    and ConvergenceError if LAPACK's eigenvectors fail the off-diagonal
    test.
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
    _, v = np.linalg.eigh(work)
    d = v.T @ work @ v
    off = offdiag_norm(d)
    target = OFF_TOL_FACTOR * float(np.linalg.norm(work, "fro"))
    if not off <= target:
        raise ConvergenceError(
            "eigensolve: eigenvectors fail the off-diagonal test "
            f"(off-diagonal norm {off:.3e}, target {target:.3e})"
        )
    return _apply_conventions(np.diag(d).copy(), v)


def eigen_symmetric(c: CorrelationMatrix) -> EigenSystem:
    """Eigendecomposition of a correlation matrix.

    Correlation matrices are positive semidefinite in exact arithmetic,
    so eigenvalues in [-1e-10, 0) are treated as rounding noise and
    clamped to zero; anything more negative means the input was not a
    correlation matrix and raises DataError.
    """
    w, u = symmetric_eigh(c.r)
    if float(w[-1]) < PSD_CLAMP:
        raise DataError(
            f"eigensolve: eigenvalue {float(w[-1]):.3e} is negative beyond rounding; "
            "input is not a valid correlation matrix"
        )
    w = np.where((w < 0.0) & (w >= PSD_CLAMP), 0.0, w)
    return EigenSystem(eigenvalues=w, U=u, R=u.T.copy())
