"""Correlation geometry: the correlation matrix and its derived views.

A correlation coefficient is read here as the cosine of the angle
between two centered data vectors.  That one identity drives the whole
module: the correlation matrix is a Gram matrix of unit vectors, the
angle matrix is its elementwise arc cosine in degrees, and the
determination matrix (squared correlation) gives the fraction of
variance either variable explains of the other.

Statistical significance uses the exact two-tailed test for a Pearson
coefficient: with t = r * sqrt((n - 2) / (1 - r^2)) following a
Student-t law with df = n - 2 under the null, the two-tailed p-value
2 * (1 - F(|t|)) collapses algebraically to I_x(df/2, 1/2) evaluated at
x = 1 - r^2, where I is the regularized incomplete beta function.  The
module evaluates that closed form directly, one coefficient at a time,
with a modified Lentz continued fraction (``betainc_reg``).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .ingest import StandardizedMatrix

__all__ = [
    "CorrelationMatrix",
    "DerivedMatrices",
    "correlation",
    "correlation_matrix",
    "significance",
    "significance_matrix",
    "student_t_cdf",
    "betainc_reg",
    "angle_deg",
    "angle_matrix",
    "determination_matrix",
    "derived_matrices",
    "load_correlation_json",
]


@dataclass(eq=False)
class CorrelationMatrix:
    """Symmetric correlation matrix with variable names and sample size."""

    r: np.ndarray
    n_obs: int
    names: list[str]

    @property
    def n(self) -> int:
        return self.r.shape[0]


@dataclass(eq=False)
class DerivedMatrices:
    """Elementwise companions of a correlation matrix.

    ``p_values`` holds two-tailed significance levels (diagonal fixed
    at 0), ``angles_deg`` the inter-variable angles in degrees, and
    ``determination`` the squared correlations as fractions in [0, 1].
    """

    names: list[str]
    n_obs: int
    p_values: np.ndarray
    angles_deg: np.ndarray
    determination: np.ndarray


def correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of two columns, as a centered cosine.

    Both vectors are centered on their means; the coefficient is then
    the cosine of the angle between them, which makes it independent of
    the standardization divisor and invariant under positive scaling.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError("corrstats: correlation needs two equal-length 1-D columns")
    if x.shape[0] < 3:
        raise DataError("corrstats: correlation needs at least 3 observations")
    xc = x - x.mean()
    yc = y - y.mean()
    nx = math.sqrt(float(xc @ xc))
    ny = math.sqrt(float(yc @ yc))
    if nx == 0.0 or ny == 0.0:
        raise DataError("corrstats: correlation undefined for a constant column")
    r = float(xc @ yc) / (nx * ny)
    if math.isnan(r):
        raise ValueError("corrstats: correlation is NaN: a column holds NaN or infinity")
    return min(1.0, max(-1.0, r))


def correlation_matrix(z: StandardizedMatrix) -> CorrelationMatrix:
    """Correlation matrix of a standardized data set.

    The Gram matrix of the centered columns divided by the outer product
    of their norms, clipped to [-1, 1].  Only its strict upper triangle
    is kept; the lower triangle is mirrored from it so symmetry holds
    exactly, and the diagonal is exactly 1.
    """
    zc = z.values - z.values.mean(axis=0)
    norms = np.sqrt(np.sum(zc * zc, axis=0))
    if np.any(norms == 0.0):
        j = int(np.argmin(norms))
        raise DataError(f"corrstats: column {z.column_names[j]!r} has zero variance")
    r = np.triu(np.clip(zc.T @ zc / np.outer(norms, norms), -1.0, 1.0), 1)
    r += r.T
    np.fill_diagonal(r, 1.0)
    return CorrelationMatrix(r=r, n_obs=z.n_rows, names=list(z.column_names))


def _betacf(a, b, x):
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
    for m in range(1, 301):
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
        if abs(delta - 1.0) < 1e-12:
            return h
    return h


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
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def significance(r: float, n_obs: int) -> float:
    """Two-tailed p-value for a Pearson coefficient from n_obs observations.

    Evaluates I_{1 - r^2}(df/2, 1/2) with df = n_obs - 2, the closed
    form of 2 * (1 - F(|t|)) for the associated t statistic.  Returns
    1.0 at r = 0 and 0.0 at |r| = 1.
    """
    if n_obs < 3:
        raise DataError("corrstats: significance needs at least 3 observations")
    if math.isnan(r):
        raise ValueError("corrstats: significance of a NaN correlation is undefined")
    if abs(r) > 1.0 + 1e-12:
        raise ValueError(f"corrstats: correlation {r} outside [-1, 1]")
    r = min(1.0, max(-1.0, r))
    x = max(0.0, 1.0 - r * r)
    return betainc_reg((n_obs - 2) / 2.0, 0.5, x)


def student_t_cdf(t: float, df: float) -> float:
    """Cumulative distribution function of Student's t with df degrees.

    Expressed through the regularized incomplete beta function:
    for t >= 0, F(t) = 1 - I_x(df/2, 1/2) / 2 with x = df / (df + t^2),
    and F(-t) = 1 - F(t) by symmetry.
    """
    if df <= 0:
        raise ValueError("corrstats: degrees of freedom must be positive")
    x = df / (df + t * t)
    half_tail = 0.5 * betainc_reg(df / 2.0, 0.5, x)
    return half_tail if t < 0 else 1.0 - half_tail


def angle_deg(r: float) -> float:
    """Angle in degrees between two variables with correlation r.

    The argument is clamped to [-1, 1] so rounding at the extremes
    cannot push arccos out of its domain.
    """
    if math.isnan(r):
        raise ValueError("corrstats: angle of a NaN correlation is undefined")
    return math.degrees(math.acos(min(1.0, max(-1.0, r))))


def significance_matrix(c: CorrelationMatrix) -> np.ndarray:
    """Matrix of two-tailed p-values; the diagonal is 0 by convention.

    Each upper-triangle coefficient goes through the scalar
    ``significance``; the lower triangle is mirrored from it.
    """
    r = c.r.tolist()
    out = np.zeros((c.n, c.n))
    for i, j in itertools.combinations(range(c.n), 2):
        out[i, j] = out[j, i] = significance(r[i][j], c.n_obs)
    return out


def angle_matrix(c: CorrelationMatrix) -> np.ndarray:
    """Matrix of inter-variable angles in degrees (diagonal 0).

    The elementwise arc cosine of the correlations, clipped to [-1, 1]
    like ``angle_deg``.
    """
    return np.degrees(np.arccos(np.clip(c.r, -1.0, 1.0)))


def determination_matrix(c: CorrelationMatrix) -> np.ndarray:
    """Matrix of determination coefficients r^2, in [0, 1] (diagonal 1)."""
    return c.r * c.r


def derived_matrices(c: CorrelationMatrix) -> DerivedMatrices:
    """Compute significance, angle, and determination matrices together."""
    return DerivedMatrices(
        names=list(c.names),
        n_obs=c.n_obs,
        p_values=significance_matrix(c),
        angles_deg=angle_matrix(c),
        determination=determination_matrix(c),
    )


def load_correlation_json(path: str | Path) -> CorrelationMatrix:
    """Load a correlation matrix from a JSON document.

    Expected shape: ``{"names": [...], "n_obs": N, "r": [[...], ...]}``
    with a square, symmetric matrix, unit diagonal, and entries in
    [-1, 1].  Symmetry and the diagonal are checked to 1e-12 and then
    snapped exact, so downstream code can rely on them.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"corrstats: cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"corrstats: {path} is not valid UTF-8: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"corrstats: {path} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # integers past the conversion digit limit, nesting past the recursion limit
        raise DataError(f"corrstats: {path} is not usable JSON: {exc}") from None

    if not isinstance(doc, dict):
        raise DataError(f"corrstats: {path} must hold a JSON object")
    missing = {"names", "n_obs", "r"} - set(doc)
    if missing:
        raise DataError(f"corrstats: {path} is missing keys: {sorted(missing)}")

    names = doc["names"]
    if (
        not isinstance(names, list)
        or len(names) < 2
        or not all(isinstance(s, str) and s for s in names)
    ):
        raise DataError("corrstats: 'names' must list at least 2 non-empty strings")
    if len(set(names)) != len(names):
        raise DataError("corrstats: duplicate variable names")

    n_obs = doc["n_obs"]
    if not isinstance(n_obs, int) or isinstance(n_obs, bool) or not 3 <= n_obs <= 2**53:
        raise DataError("corrstats: 'n_obs' must be an integer from 3 to 2**53")

    n = len(names)
    try:
        r = np.array(doc["r"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError, RecursionError):
        raise DataError("corrstats: 'r' must be a numeric matrix") from None
    if r.shape != (n, n):
        raise DataError(f"corrstats: 'r' must be {n}x{n} to match 'names', got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise DataError("corrstats: 'r' contains non-finite entries")
    if np.max(np.abs(r - r.T)) > 1e-12:
        raise DataError("corrstats: 'r' is not symmetric")
    if np.max(np.abs(np.diag(r) - 1.0)) > 1e-12:
        raise DataError("corrstats: 'r' diagonal must be 1")
    if np.max(np.abs(r)) > 1.0 + 1e-12:
        raise DataError("corrstats: 'r' entries must lie in [-1, 1]")

    r = np.clip(r, -1.0, 1.0)
    r = np.triu(r, 1) + np.triu(r, 1).T + np.eye(n)
    return CorrelationMatrix(r=r, n_obs=n_obs, names=list(names))
