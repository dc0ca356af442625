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
module evaluates that closed form directly with a modified Lentz
continued fraction (``betainc_reg``), which takes one x or a whole
array of them: the significance matrix is one batched call over the
upper triangle, and each entry is bit for bit the value the fraction
gives that coefficient alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .ingest import StandardizedMatrix

__all__ = [
    "MAX_N_OBS",
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
    gram = zc.T @ zc
    # squared in place: the Gram product is the last reader of zc
    norms = np.sqrt(np.square(zc, out=zc).sum(axis=0))
    if np.any(norms == 0.0):
        j = int(np.argmin(norms))
        raise DataError(f"corrstats: column {z.column_names[j]!r} has zero variance")
    r = np.triu(np.clip(gram / np.outer(norms, norms), -1.0, 1.0), 1)
    r += r.T
    np.fill_diagonal(r, 1.0)
    return CorrelationMatrix(r=r, n_obs=z.n_rows, names=list(z.column_names))


def _lentz(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta, modified Lentz scheme.

    Evaluated for every entry of the 1-D array ``x`` at once.  Each entry
    goes through the scalar scheme's IEEE operations in the scalar order
    and leaves the active set at the step where its own |delta - 1|
    falls below 1e-12, or after 300 steps.
    """
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    idx = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d[np.abs(d) < tiny] = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 301):
        if not idx.size:
            return out
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d[np.abs(d) < tiny] = tiny
        c = 1.0 + aa / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d[np.abs(d) < tiny] = tiny
        c = 1.0 + aa / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < 1e-12
        if np.count_nonzero(done):
            out[idx[done]] = h[done]
            keep = ~done
            idx, x, c, d, h = idx[keep], x[keep], c[keep], d[keep], h[keep]
    out[idx] = h
    return out


def _each(f, v: np.ndarray) -> np.ndarray:
    # the scalar function entry by entry: np.log and np.exp need not
    # round as math.log and math.exp do
    return np.fromiter(map(f, v.tolist()), np.float64, v.size)


# from this a on, math.lgamma(a + b) - math.lgamma(a) loses more to
# cancellation than a significance level's relative 1e-8 allows (1.1e-9
# absolute at a = 237,684, read 11 times larger in I_x near x = 1), so
# the difference comes from its series in 1/a instead
_SERIES_FROM = 2.0**15


def _ln_gamma_ratio(a: float, b: float) -> float:
    """ln Gamma(a + b) - ln Gamma(a).

    For a from ``_SERIES_FROM`` on and b <= 1 it is the asymptotic series
    b ln a + sum over k of (-1)**(k+1) (B_(k+1)(b) - B_(k+1)(0)) / (k (k+1) a**k),
    B_k the Bernoulli polynomials, to 1/a**3; the next term is below 1e-19.
    """
    if a < _SERIES_FROM or b > 1.0:
        return math.lgamma(a + b) - math.lgamma(a)
    bb = b * b
    return (b * math.log(a) + (bb - b) / (2.0 * a) - (bb * b - 1.5 * bb + 0.5 * b) / (6.0 * a * a)
            + (bb * bb - 2.0 * bb * b + bb) / (12.0 * a**3))


def betainc_reg(a, b, x):
    """Regularized incomplete beta function I_x(a, b).

    ``a`` and ``b`` are finite positive scalars; ``x`` is a scalar, which
    gives a float, or a 1-D array, which gives an array of the same
    length.  Evaluated through the modified Lentz continued fraction
    with relative tolerance 1e-12 and an iteration cap of 300, using the
    symmetry I_x(a, b) = 1 - I_{1-x}(b, a), chosen per entry, to keep
    the fraction in its fast-converging regime.  The prefactor goes
    through ``math.lgamma``, ``math.log`` and ``math.exp`` entry by
    entry, so every value is the one the scalar evaluation gives.
    """
    for name, v in (("a", a), ("b", b)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"corrstats: betainc_reg needs a finite positive {name}, got {v}")
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim > 1:
        raise ValueError("corrstats: betainc_reg takes a scalar or 1-D x")
    if np.isnan(xs).any():
        raise ValueError("corrstats: betainc_reg x is NaN")
    a = float(a)
    b = float(b)
    flat = xs.reshape(-1)
    out = np.where(flat <= 0.0, 0.0, 1.0)
    inner = np.flatnonzero((flat > 0.0) & (flat < 1.0))
    if inner.size:
        xi = flat[inner]
        ln_gammas = _ln_gamma_ratio(a, b) - math.lgamma(b)
        ln_front = ln_gammas + a * _each(math.log, xi) + b * _each(math.log, 1.0 - xi)
        front = _each(math.exp, ln_front)
        low = xi < (a + 1.0) / (a + b + 2.0)
        high = ~low
        out[inner[low]] = front[low] * _lentz(a, b, xi[low]) / a
        out[inner[high]] = 1.0 - front[high] * _lentz(b, a, 1.0 - xi[high]) / b
    return float(out[0]) if xs.ndim == 0 else out


# The most observations a significance level is computed for: the largest
# power of ten at which it stayed within a relative 1e-8 of a 50-digit
# mpmath reference near the branch point x = (a+1)/(a+b+2) (1.6e-9 at
# 10**6, 2.7e-8 at 10**7) while the prefactor's log-gamma difference came
# from math.lgamma, whose cancellation grows with n_obs (at 2**53 the
# p-value came out as -6.3e19).  That difference now comes from its series
# past a = 2**15 (``_ln_gamma_ratio``), but larger samples stay refused
# until they are checked against the reference.
MAX_N_OBS = 10**6


def _beta_argument(r, n_obs: int) -> np.ndarray:
    """x = 1 - r^2 for the significance of the correlations r, checked.

    ``n_obs`` must lie in 3..``MAX_N_OBS``.  ``r`` may have any shape;
    the first offending entry in row-major order names the error.
    """
    if n_obs < 3:
        raise DataError("corrstats: significance needs at least 3 observations")
    if n_obs > MAX_N_OBS:
        raise DataError(f"corrstats: significance is computed for at most {MAX_N_OBS:,} "
                        f"observations (its relative error exceeds 1e-8 beyond), got {n_obs:,}")
    r = np.asarray(r, dtype=np.float64)
    bad = np.isnan(r) | (np.abs(r) > 1.0 + 1e-12)
    if bad.any():
        first = float(r[bad][0])
        if math.isnan(first):
            raise ValueError("corrstats: significance of a NaN correlation is undefined")
        raise ValueError(f"corrstats: correlation {first} outside [-1, 1]")
    r = np.clip(r, -1.0, 1.0)
    return np.maximum(0.0, 1.0 - r * r)


def significance(r: float, n_obs: int) -> float:
    """Two-tailed p-value for a Pearson coefficient from n_obs observations.

    Evaluates I_{1 - r^2}(df/2, 1/2) with df = n_obs - 2, the closed
    form of 2 * (1 - F(|t|)) for the associated t statistic.  Returns
    1.0 at r = 0 and 0.0 at |r| = 1.
    """
    return betainc_reg((n_obs - 2) / 2.0, 0.5, _beta_argument(r, n_obs))


def student_t_cdf(t: float, df: float) -> float:
    """Cumulative distribution function of Student's t with df degrees.

    Expressed through the regularized incomplete beta function:
    for t >= 0, F(t) = 1 - I_x(df/2, 1/2) / 2 with x = df / (df + t^2),
    and F(-t) = 1 - F(t) by symmetry.
    """
    if math.isnan(t):
        raise ValueError("corrstats: student_t_cdf t is NaN")
    if not math.isfinite(df):
        raise ValueError(f"corrstats: degrees of freedom df must be finite, got {df}")
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

    The strict upper triangle is checked as one array and goes through
    one batched ``betainc_reg`` call, entry for entry equal to the
    scalar ``significance``; the lower triangle is mirrored from it.
    """
    iu = np.triu_indices(c.n, 1)
    p = betainc_reg((c.n_obs - 2) / 2.0, 0.5, _beta_argument(c.r[iu], c.n_obs))
    out = np.zeros((c.n, c.n))
    out[iu] = p
    out.T[iu] = p
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
    [-1, 1], and ``N`` an integer from 3 to ``MAX_N_OBS``.  The file is
    UTF-8, with or without a byte-order mark.  Symmetry and the diagonal
    are checked to 1e-12 and then snapped exact, so downstream code can
    rely on them.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_bytes().decode("utf-8-sig"))
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
    if not isinstance(n_obs, int) or isinstance(n_obs, bool) or not 3 <= n_obs <= MAX_N_OBS:
        raise DataError(f"corrstats: 'n_obs' must be an integer from 3 to {MAX_N_OBS:,}, "
                        "the most observations a significance level is computed for")

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
