"""Pipeline orchestration and report rendering (JSON, markdown, CSV).

The report dict is the single source of truth: the markdown and CSV
renderers read from it, so every printed cell round-trips from
``report.json``.  Tables are printed at 3 decimals; JSON carries full
doubles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .corrstats import (
    CorrelationMatrix,
    correlation_matrix,
    derived_matrices,
    load_correlation_json,
)
from .eigensolve import EigenSystem, eigen_symmetric
from .errors import DataError
from .ingest import (
    DataMatrix,
    StandardizedMatrix,
    load_csv,
    parse_column_spec,
    standardize,
    summarize,
)
from .pcacore import (
    CRITERIA,
    explanation_table,
    project_scores,
    scree_data,
    select_components,
    variance_explained,
)
from .tensorops import VirtualRepresentation, build_virtual, verify_relations
from .varcluster import ClusterAssignment, SimilarityProfile, cluster_kmeans, cluster_naive, similarity_profiles

__all__ = ["AnalysisResult", "load_input", "run_analysis", "render_markdown", "render_csv", "to_json_text"]

DEFAULT_THRESHOLDS = {"percentage": 0.95, "per_variable": 0.8}


@dataclass(eq=False)
class AnalysisResult:
    """Everything one analyze run produces: the report plus plot inputs."""

    report: dict
    scree_series: list[tuple[int, float]]
    profiles: list[SimilarityProfile]
    assignment: ClusterAssignment
    eigen: EigenSystem
    virtual: VirtualRepresentation
    k: int


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def load_input(
    input_path: str | Path,
    columns: str | None = None,
    label_column: str | None = None,
    header: bool = False,
    divisor: str = "population",
) -> tuple[CorrelationMatrix, DataMatrix | None, StandardizedMatrix | None]:
    """Read a CSV data file or a correlation-matrix JSON.

    Returns ``(corr, data, z)``: the correlation matrix, plus for CSV
    input the loaded data and its standardized values (both ``None``
    for JSON input).  ``columns`` and ``label_column`` use the column
    spec syntax; the label spec must select exactly one column.
    """
    input_path = Path(input_path)
    if input_path.suffix.lower() == ".json":
        return load_correlation_json(input_path), None, None
    selectors = parse_column_spec(columns) if columns else None
    label_sel: int | str | None = None
    if label_column is not None:
        parsed = parse_column_spec(label_column)
        if len(parsed) != 1:
            raise DataError("report: --label-column must select a single column")
        label_sel = parsed[0]
    data = load_csv(input_path, columns=selectors, label_column=label_sel, header=header)
    z = standardize(data, divisor)
    return correlation_matrix(z), data, z


def run_analysis(
    input_path: str | Path,
    columns: str | None = None,
    label_column: str | None = None,
    header: bool = False,
    divisor: str = "population",
    criterion: str = "per_variable",
    threshold: float | None = None,
    cluster_method: str = "naive",
    metric: str = "l2",
    seed: int = 0,
    naive_threshold: float = 0.5,
    k: int | str = "auto",
) -> AnalysisResult:
    """Run the full pipeline on a CSV file or a correlation-matrix JSON.

    With raw data the run covers summaries, standardization, scores and
    all derived tables; with a correlation JSON the score block is
    marked unavailable and everything else proceeds identically.
    """
    input_path = Path(input_path)
    if criterion not in CRITERIA:
        raise ValueError(f"report: unknown criterion {criterion!r}")

    corr, data, z = load_input(input_path, columns, label_column, header, divisor)
    input_kind = "correlation_json" if data is None else "csv"
    summaries = None if data is None else summarize(data, divisor)

    derived = derived_matrices(corr)
    eig = eigen_symmetric(corr)
    vr = build_virtual(eig)
    relations = verify_relations(vr, eig, corr)
    ve = variance_explained(eig.eigenvalues)
    expl_full = explanation_table(vr, None, corr.names)

    selections = {}
    for crit in CRITERIA:
        crit_threshold = threshold if threshold is not None else DEFAULT_THRESHOLDS.get(crit, 0.8)
        selections[crit] = select_components(eig.eigenvalues, expl_full, crit, crit_threshold)

    if k == "auto":
        k_selected = selections[criterion].k
    else:
        k_selected = int(k)
        if not 1 <= k_selected <= corr.n:
            raise ValueError(f"report: k must be in 1..{corr.n}, got {k_selected}")

    expl_k = explanation_table(vr, k_selected, corr.names)
    profiles = similarity_profiles(expl_k)
    if cluster_method == "naive":
        assignment = cluster_naive(profiles, naive_threshold)
    elif cluster_method == "kmeans":
        # one cluster per kept component mirrors the naive rule's shape
        assignment = cluster_kmeans(profiles, k_clusters=k_selected, metric=metric, seed=seed)
    else:
        raise ValueError(f"report: unknown cluster method {cluster_method!r}")

    if z is not None:
        score_mat = project_scores(z, eig.R)
        scores_block = {
            "available": True,
            "divisor": "sample",
            "summaries": [
                {
                    "component": s.name,
                    "mean": s.mean,
                    "std": s.std,
                    "variance": s.variance,
                }
                for s in score_mat.summaries
            ],
        }
    else:
        scores_block = {"available": False, "reason": "unavailable (no raw data)"}

    report = {
        "provenance": {
            "tool": "pcageom",
            "version": __version__,
            "input": str(input_path),
            "input_kind": input_kind,
            "columns": columns,
            "label_column": label_column,
            "header": header,
            "divisor": divisor,
            "criterion": criterion,
            "threshold": threshold,
            "naive_threshold": naive_threshold,
            "cluster_method": cluster_method,
            "metric": metric if cluster_method == "kmeans" else None,
            "seed": seed,
            "k_requested": k if isinstance(k, int) else str(k),
            "k": k_selected,
        },
        "column_summaries": None
        if summaries is None
        else [
            {
                "name": s.name,
                "mean": s.mean,
                "std": s.std,
                "variance": s.variance,
                "n": s.n,
                "divisor": s.divisor,
            }
            for s in summaries
        ],
        "correlation": {"names": corr.names, "n_obs": corr.n_obs, "r": corr.r.tolist()},
        "significance": derived.p_values.tolist(),
        "angles_deg": derived.angles_deg.tolist(),
        "determination": derived.determination.tolist(),
        "eigen": {
            "eigenvalues": eig.eigenvalues.tolist(),
            "U": eig.U.tolist(),
            "R": eig.R.tolist(),
            "sweeps": eig.sweeps,
        },
        "variance_explained": [
            {
                "component": f"pc{i + 1}",
                "eigenvalue": float(ve.eigenvalues[i]),
                "cumulative_eigenvalue": float(ve.cumulative_eigenvalues[i]),
                "percent": float(ve.percent[i]),
                "cumulative_percent": float(ve.cumulative_percent[i]),
            }
            for i in range(ve.n)
        ],
        "loadings_full": {
            "pc_labels": expl_full.pc_labels,
            "variables": expl_full.variable_names,
            "loading": expl_full.loading.tolist(),
            "determination": expl_full.determination.tolist(),
            "row_sums": expl_full.row_sums.tolist(),
            "column_sums": expl_full.column_sums.tolist(),
            "row_averages": expl_full.row_averages.tolist(),
        },
        "reconstruction_at_k": {
            "k": k_selected,
            "pc_labels": expl_k.pc_labels,
            "variables": expl_k.variable_names,
            "determination": expl_k.determination.tolist(),
            "column_sums": expl_k.column_sums.tolist(),
            "row_averages": expl_k.row_averages.tolist(),
        },
        "selection": {
            **{
                crit: {"k": sel.k, "detail": sel.detail}
                for crit, sel in selections.items()
            },
            "chosen_criterion": criterion,
            "k": k_selected,
        },
        "similarity_profiles": {
            "components": expl_k.pc_labels,
            "profiles": {p.variable: p.values.tolist() for p in profiles},
        },
        "clusters": assignment.to_json(),
        "scores": scores_block,
        "relations": [c.to_json() for c in relations],
    }
    return AnalysisResult(
        report=report,
        scree_series=scree_data(eig.eigenvalues),
        profiles=profiles,
        assignment=assignment,
        eigen=eig,
        virtual=vr,
        k=k_selected,
    )


def to_json_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _md_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    out = ["| " + " | ".join(headers) + " |", "| " + " | ".join("---" for _ in headers) + " |"]
    out.extend("| " + " | ".join(row) + " |" for row in rows)
    out.append("")
    return out


def _matrix_rows(names: list[str], matrix: list[list[float]], scale: float = 1.0) -> list[list[str]]:
    return [
        [name] + [_fmt(v * scale) for v in row]
        for name, row in zip(names, matrix)
    ]


def render_markdown(report: dict) -> str:
    """Render the analysis report as markdown tables (3-decimal cells)."""
    prov = report["provenance"]
    names = report["correlation"]["names"]
    lines: list[str] = []
    lines.append("# Correlation-geometry PCA report")
    lines.append("")
    lines.append(f"- input: `{prov['input']}` ({prov['input_kind']})")
    lines.append(f"- divisor: {prov['divisor']}; seed: {prov['seed']}")
    lines.append(
        f"- criterion: {prov['criterion']}"
        + (f" (threshold {prov['threshold']})" if prov["threshold"] is not None else "")
        + f"; components kept: {prov['k']}"
    )
    lines.append(f"- clustering: {prov['cluster_method']}"
                 + (f" ({prov['metric']})" if prov["metric"] else ""))
    lines.append("")

    if report["column_summaries"]:
        lines.append("## Column summaries")
        lines.append("")
        rows = [
            [s["name"], _fmt(s["mean"]), _fmt(s["std"]), _fmt(s["variance"])]
            for s in report["column_summaries"]
        ]
        lines += _md_table(["column", "mean", "std", "variance"], rows)

    lines.append("## Correlation matrix")
    lines.append("")
    lines += _md_table([""] + names, _matrix_rows(names, report["correlation"]["r"]))

    lines.append("## Significance levels (two-tailed p-values)")
    lines.append("")
    lines += _md_table([""] + names, _matrix_rows(names, report["significance"]))

    lines.append("## Angles between variables (degrees)")
    lines.append("")
    lines += _md_table([""] + names, _matrix_rows(names, report["angles_deg"]))

    lines.append("## Determination coefficients (percent)")
    lines.append("")
    lines += _md_table([""] + names, _matrix_rows(names, report["determination"], scale=100.0))

    eig = report["eigen"]
    lines.append("## Eigensystem")
    lines.append("")
    lines += _md_table(
        ["component", "eigenvalue"],
        [[f"pc{i + 1}", _fmt(v)] for i, v in enumerate(eig["eigenvalues"])],
    )
    lines.append("Eigenvectors in columns:")
    lines.append("")
    pc_heads = [f"pc{i + 1}" for i in range(len(eig["eigenvalues"]))]
    lines += _md_table([""] + pc_heads, _matrix_rows(names, eig["U"]))

    lines.append("## Variance explained")
    lines.append("")
    rows = [
        [
            row["component"],
            _fmt(row["eigenvalue"]),
            _fmt(row["cumulative_eigenvalue"]),
            _fmt(row["percent"]),
            _fmt(row["cumulative_percent"]),
        ]
        for row in report["variance_explained"]
    ]
    lines += _md_table(
        ["component", "eigenvalue", "cumulative", "percent", "cumulative percent"], rows
    )

    full = report["loadings_full"]
    lines.append("## Loadings (components vs variables)")
    lines.append("")
    lines += _md_table([""] + full["variables"], _matrix_rows(full["pc_labels"], full["loading"]))
    lines.append("## Determination (components vs variables)")
    lines.append("")
    det_rows = _matrix_rows(full["pc_labels"], full["determination"])
    for i, row in enumerate(det_rows):
        row.append(_fmt(full["row_sums"][i]))
    det_rows.append(["column sum"] + [_fmt(v) for v in full["column_sums"]] + [""])
    lines += _md_table([""] + full["variables"] + ["row sum"], det_rows)

    rec = report["reconstruction_at_k"]
    lines.append(f"## Reconstruction with the first {rec['k']} component(s)")
    lines.append("")
    rec_rows = _matrix_rows(rec["pc_labels"], rec["determination"])
    for i, row in enumerate(rec_rows):
        row.append(_fmt(rec["row_averages"][i] * 100.0))
    rec_rows.append(
        ["reconstruction %"] + [_fmt(v * 100.0) for v in rec["column_sums"]] + [""]
    )
    lines += _md_table([""] + rec["variables"] + ["row average %"], rec_rows)

    lines.append("## Component-count selection")
    lines.append("")
    sel = report["selection"]
    rows = []
    for crit in CRITERIA:
        entry = sel[crit]
        note = ""
        detail = entry["detail"]
        if "threshold" in detail:
            note = f"threshold {detail['threshold']}"
        if detail.get("no_elbow"):
            note = (note + "; " if note else "") + "no elbow"
        rows.append([crit, str(entry["k"]), note])
    rows.append(["chosen: " + sel["chosen_criterion"], str(sel["k"]), ""])
    lines += _md_table(["criterion", "k", "notes"], rows)

    lines.append("## Similarity profiles")
    lines.append("")
    prof = report["similarity_profiles"]
    rows = [
        [name] + [_fmt(v) for v in values]
        for name, values in prof["profiles"].items()
    ]
    lines += _md_table(["variable"] + prof["components"], rows)

    lines.append("## Clusters")
    lines.append("")
    cl = report["clusters"]
    rows = [[cid, ", ".join(members) if members else "(empty)"] for cid, members in cl["clusters"].items()]
    lines += _md_table(["cluster", "members"], rows)

    lines.append("## Scores")
    lines.append("")
    if report["scores"]["available"]:
        rows = [
            [s["component"], _fmt(s["mean"]), _fmt(s["std"]), _fmt(s["variance"])]
            for s in report["scores"]["summaries"]
        ]
        lines += _md_table(["component", "mean", "std", "variance (sample divisor)"], rows)
    else:
        lines.append(report["scores"]["reason"])
        lines.append("")

    lines.append("## Representation identities")
    lines.append("")
    rows = [
        [c["relation"], f"{c['max_abs_dev']:.3e}", "pass" if c["pass"] else "FAIL"]
        for c in report["relations"]
    ]
    lines += _md_table(["relation", "max abs deviation", "status"], rows)

    return "\n".join(lines)


def render_csv(report: dict) -> str:
    """Render the report as sectioned CSV with the same 3-decimal cells."""
    names = report["correlation"]["names"]
    out: list[str] = []

    def section(title: str, headers: list[str], rows: list[list[str]]) -> None:
        out.append(f"# {title}")
        out.append(",".join(headers))
        out.extend(",".join(row) for row in rows)
        out.append("")

    def quoted(cell: str) -> str:
        return f'"{cell}"' if ("," in cell or '"' in cell) else cell

    if report["column_summaries"]:
        section(
            "column summaries",
            ["column", "mean", "std", "variance"],
            [
                [quoted(s["name"]), _fmt(s["mean"]), _fmt(s["std"]), _fmt(s["variance"])]
                for s in report["column_summaries"]
            ],
        )
    for title, key, scale in (
        ("correlation", "r", 1.0),
        ("significance", "significance", 1.0),
        ("angles_deg", "angles_deg", 1.0),
        ("determination_percent", "determination", 100.0),
    ):
        matrix = report["correlation"]["r"] if key == "r" else report[key]
        section(
            title,
            [""] + [quoted(n) for n in names],
            [
                [quoted(name)] + [_fmt(v * scale) for v in row]
                for name, row in zip(names, matrix)
            ],
        )
    section(
        "variance explained",
        ["component", "eigenvalue", "cumulative", "percent", "cumulative_percent"],
        [
            [
                row["component"],
                _fmt(row["eigenvalue"]),
                _fmt(row["cumulative_eigenvalue"]),
                _fmt(row["percent"]),
                _fmt(row["cumulative_percent"]),
            ]
            for row in report["variance_explained"]
        ],
    )
    full = report["loadings_full"]
    section(
        "loadings",
        [""] + [quoted(n) for n in full["variables"]],
        [
            [label] + [_fmt(v) for v in row]
            for label, row in zip(full["pc_labels"], full["loading"])
        ],
    )
    section(
        "determination_components",
        [""] + [quoted(n) for n in full["variables"]] + ["row_sum"],
        [
            [label] + [_fmt(v) for v in row] + [_fmt(full["row_sums"][i])]
            for i, (label, row) in enumerate(zip(full["pc_labels"], full["determination"]))
        ]
        + [["column_sum"] + [_fmt(v) for v in full["column_sums"]] + [""]],
    )
    rec = report["reconstruction_at_k"]
    section(
        f"reconstruction_k{rec['k']}",
        [""] + [quoted(n) for n in rec["variables"]] + ["row_average_percent"],
        [
            [label] + [_fmt(v) for v in row] + [_fmt(rec["row_averages"][i] * 100.0)]
            for i, (label, row) in enumerate(zip(rec["pc_labels"], rec["determination"]))
        ]
        + [["reconstruction_percent"] + [_fmt(v * 100.0) for v in rec["column_sums"]] + [""]],
    )
    section(
        "selection",
        ["criterion", "k"],
        [[crit, str(report["selection"][crit]["k"])] for crit in CRITERIA]
        + [["chosen:" + report["selection"]["chosen_criterion"], str(report["selection"]["k"])]],
    )
    prof = report["similarity_profiles"]
    section(
        "similarity_profiles",
        ["variable"] + prof["components"],
        [
            [quoted(name)] + [_fmt(v) for v in values]
            for name, values in prof["profiles"].items()
        ],
    )
    section(
        "clusters",
        ["cluster", "members"],
        [
            [cid, quoted(";".join(members))]
            for cid, members in report["clusters"]["clusters"].items()
        ],
    )
    if report["scores"]["available"]:
        section(
            "scores",
            ["component", "mean", "std", "variance_sample"],
            [
                [s["component"], _fmt(s["mean"]), _fmt(s["std"]), _fmt(s["variance"])]
                for s in report["scores"]["summaries"]
            ],
        )
    section(
        "relations",
        ["relation", "max_abs_dev", "pass"],
        [
            [quoted(c["relation"]), f"{c['max_abs_dev']:.3e}", "pass" if c["pass"] else "FAIL"]
            for c in report["relations"]
        ],
    )
    return "\n".join(out)
