"""Rotation-tensor transforms and the virtual representation algebra.

Standardized variables and principal components can both be pictured as
unit-variance vectors.  Four matrices carry those pictures:

* ``A_prime``: columns are the variable vectors written in the
  eigenvector base; entry (i, j) is the loading of variable j on
  component i, computed analytically as u_ji * sqrt(lambda_i).
* ``A``: the same vectors in the standard base, ``A = R^T A'``.  It is
  symmetric and is the positive-semidefinite square root of the
  correlation matrix: A A = C.
* ``P``: columns are the component vectors in the standard base,
  ``P = A'^T``.
* ``P_prime``: the component vectors in their own base, ``P' = R P``,
  diagonal with sqrt(lambda) on the diagonal.

Because every one of these matrices is a rotation away from the others,
a grid of product identities ties them together.  ``verify_relations``
evaluates all 22 and reports the worst deviation of each, which doubles
as an end-to-end consistency check of the whole decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrstats import CorrelationMatrix
from .eigensolve import EigenSystem

__all__ = [
    "VirtualRepresentation",
    "RelationCheck",
    "RELATION_TOLERANCE",
    "transform_vector",
    "transform_rank2",
    "build_virtual",
    "verify_relations",
]

RELATION_TOLERANCE = 1e-7

_TO_NEW = "to_new"
_TO_OLD = "to_old"


@dataclass(eq=False)
class VirtualRepresentation:
    """The four vector-picture matrices A', A, P, P' of one eigensystem."""

    A_prime: np.ndarray
    A: np.ndarray
    P: np.ndarray
    P_prime: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(eq=False)
class RelationCheck:
    """Outcome of one product identity: its worst entry deviation."""

    relation: str
    max_abs_dev: float
    passed: bool


def _check_rotation(r: np.ndarray, n: int | None = None) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"tensorops: rotation matrix must be square, got {r.shape}")
    if n is not None and r.shape[0] != n:
        raise ValueError(f"tensorops: dimension mismatch: operand is {n}-D, rotation {r.shape[0]}-D")
    dev = float(np.max(np.abs(r @ r.T - np.eye(r.shape[0]))))
    if dev > 1e-8:
        raise ValueError(f"tensorops: matrix is not orthogonal (max R R^T deviation {dev:.3e})")
    return r


def transform_vector(v: np.ndarray, r: np.ndarray, direction: str = _TO_NEW) -> np.ndarray:
    """Rotate a rank-1 tensor between bases: v' = R v, or back, v = R^T v'.

    ``direction="to_new"`` maps standard-base coordinates into the
    rotated base; ``"to_old"`` applies the inverse.  Scalars (rank 0)
    are unchanged by a rotation, so no operation is provided for them.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"tensorops: expected a 1-D vector, got shape {v.shape}")
    r = _check_rotation(r, v.shape[0])
    if direction == _TO_NEW:
        return r @ v
    if direction == _TO_OLD:
        return r.T @ v
    raise ValueError(f"tensorops: unknown direction {direction!r}")


def transform_rank2(m: np.ndarray, r: np.ndarray, direction: str = _TO_NEW) -> np.ndarray:
    """Rotate a rank-2 tensor between bases: M' = R M R^T, or back."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"tensorops: expected a square matrix, got shape {m.shape}")
    r = _check_rotation(r, m.shape[0])
    if direction == _TO_NEW:
        return r @ m @ r.T
    if direction == _TO_OLD:
        return r.T @ m @ r
    raise ValueError(f"tensorops: unknown direction {direction!r}")


def build_virtual(eigen: EigenSystem) -> VirtualRepresentation:
    """Construct A', A, P, P' from an eigensystem.

    Loadings are formed analytically from eigenvector components and
    eigenvalues rather than by correlating score columns against data
    columns; the two agree, but the analytic form needs no divisor
    convention and works without raw data.
    """
    root = np.sqrt(eigen.eigenvalues)
    a_prime = root[:, None] * eigen.R
    a = eigen.R.T @ a_prime
    a = 0.5 * (a + a.T)
    p = a_prime.T.copy()
    p_prime = eigen.R @ p
    return VirtualRepresentation(A_prime=a_prime, A=a, P=p, P_prime=p_prime)


def verify_relations(
    vr: VirtualRepresentation, eigen: EigenSystem, c: CorrelationMatrix
) -> list[RelationCheck]:
    """Evaluate every product identity of the representation grid.

    Returns one check per relation with its max elementwise deviation;
    deviations above ``RELATION_TOLERANCE`` are flagged, never raised,
    so a report can show the full grid.
    """
    a = vr.A
    ap = vr.A_prime
    p = vr.P
    pp = vr.P_prime
    r = eigen.R
    cm = c.r
    cp = np.diag(eigen.eigenvalues)

    relations: list[tuple[str, np.ndarray, np.ndarray]] = [
        ("A' = R A", ap, r @ a),
        ("P = A R^T", p, a @ r.T),
        ("P' = R A R^T", pp, r @ a @ r.T),
        ("C = A^T A", cm, a.T @ a),
        ("C' = R A^T A R^T", cp, r @ a.T @ a @ r.T),
        ("A = R^T A'", a, r.T @ ap),
        ("P = A'^T", p, ap.T),
        ("P' = R A'^T", pp, r @ ap.T),
        ("C = A'^T A'", cm, ap.T @ ap),
        ("C' = R A'^T A' R^T", cp, r @ ap.T @ ap @ r.T),
        ("A = P R", a, p @ r),
        ("A' = P^T", ap, p.T),
        ("P' = R P", pp, r @ p),
        ("C = R^T P^T P R", cm, r.T @ p.T @ p @ r),
        ("C' = P^T P", cp, p.T @ p),
        ("A = R^T P' R", a, r.T @ pp @ r),
        ("A' = P' R", ap, pp @ r),
        ("P = R^T P'", p, r.T @ pp),
        ("C = R^T P'^T P' R", cm, r.T @ pp.T @ pp @ r),
        ("C' = P'^T P'", cp, pp.T @ pp),
        ("C' = R C R^T", cp, r @ cm @ r.T),
        ("C = R^T C' R", cm, r.T @ cp @ r),
    ]

    out = []
    for name, lhs, rhs in relations:
        dev = float(np.max(np.abs(lhs - rhs)))
        out.append(RelationCheck(relation=name, max_abs_dev=dev, passed=dev <= RELATION_TOLERANCE))
    return out
