"""Pipeline orchestration and report rendering (JSON, markdown, CSV).

The report dict is the single source of truth: the markdown and CSV
renderers read from it, so every printed cell round-trips from
``report.json``.  Tables are printed at 3 decimals; JSON carries full
doubles.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from types import SimpleNamespace

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
    spec syntax; the label spec must select exactly one column.  They
    and ``header`` apply to CSV input only; JSON input rejects them.
    """
    input_path = Path(input_path)
    if input_path.suffix.lower() == ".json":
        flags = {"--columns": columns is not None, "--label-column": label_column is not None,
                 "--header": header}
        given = [flag for flag, on in flags.items() if on]
        if given:
            raise DataError(f"report: {', '.join(given)} given with JSON input {input_path.name}; "
                            "--columns, --label-column and --header apply to CSV input only")
        return load_correlation_json(input_path), None, None
    selectors = parse_column_spec(columns) if columns is not None else None
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
    """The report as JSON text: ``json.dumps(report, indent=2,
    sort_keys=True) + "\\n"``, byte for byte.

    ``json.dumps`` runs its pure-Python encoder whenever it indents; this
    writer does the same job with one join per list of plain floats.
    """
    return _json(report, "") + "\n"


def _json(o, indent: str) -> str:
    """``o`` as indented JSON whose first line starts at ``indent``.

    A value of another type, or a key that is not a ``str``, raises a
    ``TypeError`` naming its type (the key's from the sort or the quote).
    """
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        # a NaN or an infinity makes the sum non-finite, so only a row of
        # finite floats takes the one join
        if {*map(type, o)} == {float} and math.isfinite(sum(o)):
            body = sep.join(map(float.__repr__, o))
        else:
            body = sep.join([_json(v, inner) for v in o])
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join([_quote(key) + ": " + _json(o[key], inner) for key in sorted(o)])
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if math.isinf(o):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _matrix(labels: Iterable[str], matrix: Iterable, scale: float = 1.0) -> Iterator[list[str]]:
    """Rows of a labelled matrix at 3 decimals, formatted as they are read."""
    return ([label] + [f"{v * scale:.3f}" for v in row] for label, row in zip(labels, matrix))


def _records(records: list[dict], label: str, keys: tuple[str, ...]) -> list[list[str]]:
    """One row per record: its ``label`` field, then ``keys`` at 3 decimals."""
    return [[r[label]] + [f"{r[key]:.3f}" for key in keys] for r in records]


_STATS = ("mean", "std", "variance")


def _sections(report: dict) -> list[tuple]:
    """The report's tables in print order, shared by both text renderers.

    Each section is ``(markdown title line, CSV title or None, headers,
    rows)``.  A header or cell that the two formats spell differently is
    a ``(markdown, csv)`` pair, and ``None`` on one side leaves that cell
    out of that format.  A CSV title of ``None`` keeps the table out of
    the CSV; headers of ``None`` make the rows markdown text lines.
    Matrix rows are generators that format each row as it is read: the
    CSV never formats the markdown-only eigenvectors, and the sections
    of one call can be rendered once.
    """
    names = report["correlation"]["names"]
    sections = []
    if report["column_summaries"]:
        sections.append((
            "## Column summaries", "column summaries", ["column", *_STATS],
            _records(report["column_summaries"], "name", _STATS),
        ))
    for md_title, csv_title, matrix, scale in (
        ("## Correlation matrix", "correlation", report["correlation"]["r"], 1.0),
        ("## Significance levels (two-tailed p-values)", "significance",
         report["significance"], 1.0),
        ("## Angles between variables (degrees)", "angles_deg", report["angles_deg"], 1.0),
        ("## Determination coefficients (percent)", "determination_percent",
         report["determination"], 100.0),
    ):
        sections.append((md_title, csv_title, [""] + names, _matrix(names, matrix, scale)))

    eig = report["eigen"]
    pcs = [f"pc{i + 1}" for i in range(len(eig["eigenvalues"]))]
    sections.append((
        "## Eigensystem", None, ["component", "eigenvalue"],
        [[pc, f"{v:.3f}"] for pc, v in zip(pcs, eig["eigenvalues"])],
    ))
    sections.append(("Eigenvectors in columns:", None, [""] + pcs, _matrix(names, eig["U"])))
    sections.append((
        "## Variance explained", "variance explained",
        ["component", "eigenvalue", "cumulative", "percent",
         ("cumulative percent", "cumulative_percent")],
        _records(report["variance_explained"], "component",
                 ("eigenvalue", "cumulative_eigenvalue", "percent", "cumulative_percent")),
    ))

    full = report["loadings_full"]
    sections.append((
        "## Loadings (components vs variables)", "loadings", [""] + full["variables"],
        _matrix(full["pc_labels"], full["loading"]),
    ))
    det_rows = [
        [label] + [f"{v:.3f}" for v in row] + [f"{total:.3f}"]
        for label, row, total in zip(full["pc_labels"], full["determination"], full["row_sums"])
    ]
    det_rows.append(
        [("column sum", "column_sum")] + [f"{v:.3f}" for v in full["column_sums"]] + [""]
    )
    sections.append((
        "## Determination (components vs variables)", "determination_components",
        [""] + full["variables"] + [("row sum", "row_sum")], det_rows,
    ))

    rec = report["reconstruction_at_k"]
    rec_rows = [
        [label] + [f"{v:.3f}" for v in row] + [f"{avg * 100.0:.3f}"]
        for label, row, avg in zip(rec["pc_labels"], rec["determination"], rec["row_averages"])
    ]
    rec_rows.append(
        [("reconstruction %", "reconstruction_percent")]
        + [f"{v * 100.0:.3f}" for v in rec["column_sums"]]
        + [""]
    )
    sections.append((
        f"## Reconstruction with the first {rec['k']} component(s)", f"reconstruction_k{rec['k']}",
        [""] + rec["variables"] + [("row average %", "row_average_percent")], rec_rows,
    ))

    sel = report["selection"]
    sel_rows = []
    for crit in CRITERIA:
        detail = sel[crit]["detail"]
        notes = [f"threshold {detail['threshold']}"] if "threshold" in detail else []
        if detail.get("no_elbow"):
            notes.append("no elbow")
        sel_rows.append([crit, str(sel[crit]["k"]), ("; ".join(notes), None)])
    chosen = sel["chosen_criterion"]
    sel_rows.append([(f"chosen: {chosen}", f"chosen:{chosen}"), str(sel["k"]), ("", None)])
    sections.append((
        "## Component-count selection", "selection", ["criterion", "k", ("notes", None)], sel_rows
    ))

    prof = report["similarity_profiles"]
    sections.append((
        "## Similarity profiles", "similarity_profiles", ["variable"] + prof["components"],
        _matrix(prof["profiles"].keys(), prof["profiles"].values()),
    ))
    sections.append((
        "## Clusters", "clusters", ["cluster", "members"],
        [
            [cid, (", ".join(members) if members else "(empty)", ";".join(members))]
            for cid, members in report["clusters"]["clusters"].items()
        ],
    ))

    scores = report["scores"]
    if scores["available"]:
        sections.append((
            "## Scores", "scores",
            ["component", "mean", "std", ("variance (sample divisor)", "variance_sample")],
            _records(scores["summaries"], "component", _STATS),
        ))
    else:
        sections.append(("## Scores", None, None, [scores["reason"]]))
    sections.append((
        "## Representation identities", "relations",
        ["relation", ("max abs deviation", "max_abs_dev"), ("status", "pass")],
        [
            [c["relation"], f"{c['max_abs_dev']:.3e}", "pass" if c["pass"] else "FAIL"]
            for c in report["relations"]
        ],
    ))
    return sections


def _side(cells: list, side: int) -> list[str]:
    """One format's cells of a row: pairs resolved to ``side``, ``None`` dropped."""
    if tuple not in map(type, cells):  # most rows are plain strings
        return cells
    return [
        c if c.__class__ is str else c[side]
        for c in cells
        if c.__class__ is str or c[side] is not None
    ]


def render_markdown(report: dict) -> str:
    """Render the analysis report as markdown tables (3-decimal cells)."""
    prov = report["provenance"]
    lines = [
        "# Correlation-geometry PCA report",
        "",
        f"- input: `{prov['input']}` ({prov['input_kind']})",
        f"- divisor: {prov['divisor']}; seed: {prov['seed']}",
        f"- criterion: {prov['criterion']}"
        + (f" (threshold {prov['threshold']})" if prov["threshold"] is not None else "")
        + f"; components kept: {prov['k']}",
        f"- clustering: {prov['cluster_method']}"
        + (f" ({prov['metric']})" if prov["metric"] else ""),
        "",
    ]
    for title, _, headers, rows in _sections(report):
        lines += [title, ""]
        if headers is None:
            lines += rows
        else:
            headers = _side(headers, 0)
            lines.append("| " + " | ".join(headers) + " |")
            lines.append("| " + " | ".join(["---"] * len(headers)) + " |")
            lines += ["| " + " | ".join(_side(row, 0)) + " |" for row in rows]
        lines.append("")
    return "\n".join(lines)


def render_csv(report: dict) -> str:
    """Render the report as sectioned CSV with the same 3-decimal cells.

    Each table is a ``# title`` line, a header row and its rows, quoted
    per RFC 4180; a blank line separates tables.  The eigensystem and
    the selection notes are markdown only.
    """
    buf = io.StringIO()
    # a "\r" in the terminator makes the writer quote cells holding one;
    # each row still ends in "\n"
    rows_out = SimpleNamespace(write=lambda line: buf.write(line[:-2] + "\n"))
    writer = csv.writer(rows_out, lineterminator="\r\n")
    for _, title, headers, rows in _sections(report):
        if title is None:
            continue
        buf.write(f"# {title}\n")
        writer.writerow(_side(headers, 1))
        writer.writerows(_side(row, 1) for row in rows)
        buf.write("\n")
    return buf.getvalue()[:-1]
