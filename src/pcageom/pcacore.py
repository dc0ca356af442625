"""Scores, variance accounting, explanation tables, and component selection.

The explanation table is the pivot of this module: entry (i, j) of its
determination part is the fraction of variable j's variance carried by
component i.  Column sums over all components are exactly 1 and row
sums are the eigenvalues.  The table is always built in full, once per
analysis; everything at a chosen k is its first k rows.  Summed over
those rows, a column is that variable's reconstruction level, which
backs the strictest of the four selection criteria: instead of asking
that k components explain enough variance on average, it asks that they
explain enough of every single variable.  Read column by column, the
same k rows are the similarity profiles that ``varcluster`` clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ingest import SAMPLE, ColumnSummary, DataMatrix, StandardizedMatrix, summarize
from .tensorops import VirtualRepresentation

__all__ = [
    "CRITERIA",
    "ScoreMatrix",
    "VarianceExplained",
    "ExplanationTable",
    "SelectionResult",
    "project_scores",
    "variance_explained",
    "explanation_table",
    "select_components",
    "component_labels",
]

CRITERIA = ("percentage", "scree", "eigenvalue_ge_1", "per_variable")

FLAT_TOL = 1e-12


@dataclass(eq=False)
class ScoreMatrix:
    """Observations projected into the principal-component base.

    Column variances are reported with the sample divisor (n - 1): for
    population-standardized input they equal lambda * n / (n - 1), and
    that is the convention the summaries document.
    """

    scores: np.ndarray
    component_names: list[str]
    summaries: list[ColumnSummary] = field(repr=False)

    @property
    def n_rows(self) -> int:
        return self.scores.shape[0]

    @property
    def n_components(self) -> int:
        return self.scores.shape[1]


@dataclass(eq=False)
class VarianceExplained:
    """Eigenvalues with their percent-of-variance bookkeeping.

    ``percent`` is eigenvalue / n * 100 with n the component count; for
    a correlation spectrum (trace n) the cumulative percent ends at 100.
    """

    eigenvalues: np.ndarray
    cumulative_eigenvalues: np.ndarray
    percent: np.ndarray
    cumulative_percent: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(eq=False)
class ExplanationTable:
    """Loadings and determination of components (rows) vs variables (columns).

    All numbers are fractions; renderers scale to percent.  There is
    one row per component, so ``column_sums`` are all 1 up to rounding;
    the first k rows summed over axis 0 are the per-variable
    reconstruction levels at k.
    """

    loading: np.ndarray
    determination: np.ndarray
    pc_labels: list[str]
    variable_names: list[str]
    row_sums: np.ndarray
    column_sums: np.ndarray
    row_averages: np.ndarray


@dataclass(eq=False)
class SelectionResult:
    """A chosen component count plus the evidence behind it."""

    criterion: str
    k: int
    detail: dict


def component_labels(k: int) -> list[str]:
    """The names of the first k principal components: pc1, pc2, ..."""
    return [f"pc{i + 1}" for i in range(k)]


def project_scores(z: StandardizedMatrix, r: np.ndarray) -> ScoreMatrix:
    """Rotate standardized rows into the component base: p^T = R a^T.

    Equivalent to rotating the coordinate system under the data; score
    columns come out centered and mutually uncorrelated.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"pcacore: rotation matrix must be square, got {r.shape}")
    if r.shape[0] != z.n_cols:
        raise ValueError(
            f"pcacore: data has {z.n_cols} columns but rotation is {r.shape[0]}-dimensional"
        )
    scores = z.values @ r.T
    names = component_labels(z.n_cols)
    summaries = summarize(DataMatrix(values=scores, column_names=names), SAMPLE)
    return ScoreMatrix(scores=scores, component_names=names, summaries=summaries)


def variance_explained(eigenvalues: np.ndarray) -> VarianceExplained:
    """Percent-of-variance table for a descending eigenvalue spectrum."""
    w = np.asarray(eigenvalues, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] == 0:
        raise ValueError("pcacore: eigenvalues must be a nonempty 1-D vector")
    if np.any(w < -1e-12):
        raise ValueError("pcacore: eigenvalues must be nonnegative")
    if np.any(np.diff(w) > 1e-9):
        raise ValueError("pcacore: eigenvalues must be in descending order")
    w = np.clip(w, 0.0, None)
    n = w.shape[0]
    percent = w / n * 100.0
    return VarianceExplained(
        eigenvalues=w.copy(),
        cumulative_eigenvalues=np.cumsum(w),
        percent=percent,
        cumulative_percent=np.cumsum(percent),
    )


def explanation_table(
    vr: VirtualRepresentation, variable_names: list[str] | None = None
) -> ExplanationTable:
    """Component-vs-variable loadings and determination with aggregates,
    one row per component.

    Row sums of the determination reproduce the eigenvalues and its
    column sums are 1; the column sums of its first k rows measure how
    much of each variable the first k components reconstruct.
    """
    n = vr.n
    if variable_names is None:
        variable_names = [f"x{j + 1}" for j in range(n)]
    elif len(variable_names) != n:
        raise ValueError(f"pcacore: expected {n} variable names, got {len(variable_names)}")

    loading = vr.A_prime.copy()
    det = loading * loading
    return ExplanationTable(
        loading=loading,
        determination=det,
        pc_labels=component_labels(n),
        variable_names=list(variable_names),
        row_sums=det.sum(axis=1),
        column_sums=det.sum(axis=0),
        row_averages=det.mean(axis=1),
    )


def _second_differences(w: np.ndarray) -> np.ndarray:
    return w[:-2] - 2.0 * w[1:-1] + w[2:]


def select_components(
    eigenvalues: np.ndarray,
    expl: ExplanationTable,
    criterion: str,
    threshold: float = 0.8,
) -> SelectionResult:
    """Choose how many components to keep, by one of four criteria.

    * ``percentage``: smallest k whose cumulative variance fraction
      reaches the threshold.
    * ``eigenvalue_ge_1``: as many components as eigenvalues >= 1 (at
      least one).
    * ``scree``: the elbow of the eigenvalue curve, located as the
      smallest k maximizing the discrete second difference; a spectrum
      with no positive curvature is flagged ``no_elbow`` and yields 1.
    * ``per_variable``: smallest k such that the first k components
      reconstruct at least the threshold fraction of every variable's
      variance, read off the cumulative determination columns of
      ``expl``.

    ``threshold`` applies to the percentage and per_variable criteria
    and must lie in (0, 1]; the other two ignore it.
    """
    w = np.asarray(eigenvalues, dtype=np.float64)
    n = w.shape[0]
    if criterion not in CRITERIA:
        raise ValueError(f"pcacore: unknown criterion {criterion!r}, expected one of {CRITERIA}")

    if criterion in ("percentage", "per_variable") and not 0.0 < threshold <= 1.0:
        raise ValueError(f"pcacore: threshold must be in (0, 1], got {threshold}")

    if criterion == "percentage":
        cum_frac = np.cumsum(w) / n
        hits = np.nonzero(cum_frac >= threshold)[0]
        k = int(hits[0]) + 1 if hits.size else n
        return SelectionResult(
            criterion=criterion,
            k=k,
            detail={"threshold": threshold, "cumulative_fraction": cum_frac},
        )

    if criterion == "eigenvalue_ge_1":
        k = max(1, int(np.sum(w >= 1.0)))
        return SelectionResult(
            criterion=criterion,
            k=k,
            detail={"eigenvalues_ge_1": int(np.sum(w >= 1.0))},
        )

    if criterion == "scree":
        if n < 3:
            return SelectionResult(
                criterion=criterion, k=1, detail={"second_differences": np.empty(0), "no_elbow": True}
            )
        d = _second_differences(w)
        no_elbow = bool(np.max(d) <= FLAT_TOL)
        k = 1 if no_elbow else int(np.argmax(d)) + 1
        return SelectionResult(
            criterion=criterion,
            k=k,
            detail={"second_differences": d, "no_elbow": no_elbow},
        )

    cum = np.cumsum(expl.determination, axis=0)
    minima = cum.min(axis=1)
    hits = np.nonzero(minima >= threshold)[0]
    k = int(hits[0]) + 1 if hits.size else n
    return SelectionResult(
        criterion=criterion,
        k=k,
        detail={
            "threshold": threshold,
            "min_cumulative_by_k": minima,
            "per_variable_cumulative_at_k": {
                name: float(cum[k - 1, j]) for j, name in enumerate(expl.variable_names)
            },
        },
    )

