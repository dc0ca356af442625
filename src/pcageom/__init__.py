"""Correlation-geometry PCA with explanation tables and variable clustering.

The package reads a numeric data set (or a ready-made correlation
matrix) and walks the full chain: correlation, the cosines between the
centered columns, so taken from the data as loaded, with no
standardized copy; significance, angle, and determination matrices; a
deterministic, certified eigendecomposition; the rotation-tensor
algebra of the four representation matrices A, A', P, P'; summaries of
the principal-component scores, in closed form from the eigenvalues;
variance-explained and reconstruction tables; four component-count
selection criteria; and clustering of the variables by their similarity
to the kept components.  The ``pcageom`` CLI wraps it end to end.
``standardize`` and ``project_scores`` give the standardized data and
the scores themselves for library use.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .corrstats import (
    CorrelationMatrix,
    DerivedMatrices,
    angle_deg,
    angle_matrix,
    correlation,
    correlation_matrix,
    derived_matrices,
    determination_matrix,
    load_correlation_json,
    significance,
    significance_matrix,
    student_t_cdf,
)
from .eigensolve import EigenSystem, eigen_symmetric, symmetric_eigh
from .errors import ConvergenceError, DataError, PcageomError
from .fixtures import fixture_path
from .ingest import (
    ColumnSummary,
    DataMatrix,
    StandardizedMatrix,
    load_csv,
    parse_column_spec,
    standardize,
    summarize,
)
from .pcacore import (
    CRITERIA,
    ExplanationTable,
    ScoreMatrix,
    SelectionResult,
    VarianceExplained,
    explanation_table,
    project_scores,
    select_components,
    variance_explained,
)
from .report import render_csv, render_markdown, run_analysis
from .svgplot import render_svg_scree, render_svg_similarity
from .tensorops import (
    RelationCheck,
    VirtualRepresentation,
    build_virtual,
    transform_rank2,
    transform_vector,
    verify_relations,
)
from .varcluster import (
    METRICS,
    ClusterAssignment,
    cluster_kmeans,
    cluster_naive,
    lloyd,
    similarity_profiles,
)

__all__ = [
    "__version__",
    "PcageomError",
    "DataError",
    "ConvergenceError",
    "DataMatrix",
    "ColumnSummary",
    "StandardizedMatrix",
    "load_csv",
    "parse_column_spec",
    "summarize",
    "standardize",
    "CorrelationMatrix",
    "DerivedMatrices",
    "correlation",
    "correlation_matrix",
    "significance",
    "significance_matrix",
    "student_t_cdf",
    "angle_deg",
    "angle_matrix",
    "determination_matrix",
    "derived_matrices",
    "load_correlation_json",
    "EigenSystem",
    "symmetric_eigh",
    "eigen_symmetric",
    "VirtualRepresentation",
    "RelationCheck",
    "transform_vector",
    "transform_rank2",
    "build_virtual",
    "verify_relations",
    "ScoreMatrix",
    "VarianceExplained",
    "ExplanationTable",
    "SelectionResult",
    "CRITERIA",
    "project_scores",
    "variance_explained",
    "explanation_table",
    "select_components",
    "METRICS",
    "ClusterAssignment",
    "similarity_profiles",
    "cluster_naive",
    "cluster_kmeans",
    "lloyd",
    "render_svg_scree",
    "render_svg_similarity",
    "run_analysis",
    "render_markdown",
    "render_csv",
    "fixture_path",
]
