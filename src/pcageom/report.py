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
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from types import SimpleNamespace

import numpy as np

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
            # always 0: the eigensolver no longer sweeps.  Dropping the key
            # is a schema decision for the maintainer (ROADMAP.md, report.json
            # schema item), so readers of the report keep finding it.
            "sweeps": 0,
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
    writer walks the tree once, appending pieces to one list joined at
    the end.  A row of finite floats is left as a slot, and after the
    walk ``float.__repr__`` formats each distinct double of all the rows
    once: the report repeats many (``eigen.R`` is ``U`` transposed, the
    matrices are symmetric).  Doubles are told apart by their bits, so
    ``0.0`` and ``-0.0`` keep their own text.  Nothing is cached
    between calls.
    """
    out: list[str] = []
    values: list[float] = []
    slots: list[tuple[int, int, str]] = []
    _walk(report, "", out, values, slots)
    out.append("\n")
    _fill(out, values, slots)
    return "".join(out)


def _walk(o, indent: str, out: list, values: list, slots: list) -> None:
    """Append ``o`` as indented JSON whose first line starts at ``indent``.

    A row of finite floats appends a placeholder and records the slot
    ``(index in out, length, separator)``; its values go to ``values``.
    A value of another type, or a key that is not a ``str``, raises a
    ``TypeError`` naming its type (the key's from the sort or the quote).
    """
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        # a NaN or an infinity makes the sum non-finite, so only a row of
        # finite floats takes a slot
        if {*map(type, o)} == {float} and math.isfinite(sum(o)):
            slots.append((len(out), len(o), sep))
            out.append("")
            values += o
        else:
            for i, v in enumerate(o):
                if i:
                    out.append(sep)
                _walk(v, inner, out, values, slots)
        out.append("\n" + indent + "]")
        return
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(o):
            out.append(sep + _quote(key) + ": ")
            sep = ",\n" + inner
            _walk(o[key], inner, out, values, slots)
        out.append("\n" + indent + "}")
        return
    out.append(_scalar(o))


def _scalar(o) -> str:
    """A value that is neither a list, a tuple nor a dict, as JSON."""
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


def _fill(out: list, values: list[float], slots: list[tuple[int, int, str]]) -> None:
    """Write each slot's row text into ``out``, formatting every distinct
    bit pattern of ``values`` once."""
    bits = np.fromiter(values, np.float64, len(values)).view(np.uint64)
    values.clear()
    distinct, which = np.unique(bits, return_inverse=True)
    del bits
    doubles = distinct.view(np.float64)
    # an object array hands out each value's text in one gather, not one
    # Python index per value; formatting it a block at a time keeps only
    # one block of Python floats alive beside the texts
    texts = np.empty(doubles.size, dtype=object)
    for start in range(0, doubles.size, 1024):
        texts[start:start + 1024] = list(map(float.__repr__, doubles[start:start + 1024].tolist()))
    pieces = iter(texts[which].tolist())
    del distinct, doubles, which, texts
    for at, length, sep in slots:
        out[at] = sep.join(islice(pieces, length))


# below this many cells the keyed pass's fixed NumPy calls cost more than
# the f-strings they save: the two took equal time on an 8-variable
# report (about 500 cells), the keyed pass 1.2x as long at 4 variables
_KEYED_MIN = 512


def _three_decimals(blocks: list[tuple[list[list[float]], float]]) -> list[list[list[str]]]:
    """Each block's cells as ``f"{v * scale:.3f}"``, byte for byte, in the
    block's row shapes; a block is ``(rows of floats, scale)``.

    The cells of all blocks are formatted in one pass.  A cell
    w = v * scale is keyed by the bits of k = rint(1000 * w), so
    ``-0.000`` keeps its own text, and each distinct key is formatted
    once, as k / 1000.  A cell that is not finite, has |1000 * w| of
    2**31 or more, or lies within 1e-6 of a .5 boundary goes through
    the f-string itself: below 2**31 the product 1000 * w is within
    2**-22 of the exact one, so off the margin rint rounds as the
    f-string does.  With fewer than ``_KEYED_MIN`` cells every cell goes
    through the f-string.  Nothing is cached between calls.
    """
    values: list[float] = []
    scaled = []
    for rows, scale in blocks:
        start = len(values)
        for row in rows:
            values += row
        if scale != 1.0:
            scaled.append((start, len(values), scale))
    if len(values) < _KEYED_MIN:
        return [[[f"{v * scale:.3f}" for v in row] for row in rows] for rows, scale in blocks]
    # each array is dropped once used: together they would set the
    # render's peak memory
    w = np.fromiter(values, np.float64, len(values))
    del values
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop, scale in scaled:
            w[start:stop] *= scale
        p = w * 1000.0
        k = np.rint(p)
        loose = np.flatnonzero((np.abs(p) >= 2.0**31) | ~(np.abs(np.abs(p - k) - 0.5) > 1e-6))
    loose_texts = [f"{v:.3f}" for v in w[loose].tolist()]
    del w, p
    k[loose] = 0.0
    distinct, which = np.unique(k.view(np.uint64), return_inverse=True)
    del k
    texts = np.empty(distinct.size, dtype=object)
    texts[:] = list(map("{:.3f}".format, (distinct.view(np.float64) / 1000.0).tolist()))
    cells = texts[which]
    del which
    cells[loose] = loose_texts
    pieces = iter(cells.tolist())
    return [[list(islice(pieces, len(row))) for row in rows] for rows, _ in blocks]


def _labelled(labels: Iterable[str], rows: list[list[str]]) -> list[list[str]]:
    return [[label, *row] for label, row in zip(labels, rows)]


def _records(records: list[dict], label: str, keys: tuple[str, ...]) -> list[list[str]]:
    """One row per record: its ``label`` field, then ``keys`` at 3 decimals."""
    return [[r[label]] + [f"{r[key]:.3f}" for key in keys] for r in records]


_STATS = ("mean", "std", "variance")


def _sections(report: dict) -> list[tuple]:
    """The report's tables in print order, shared by both text renderers.

    Each section is ``(markdown title line, CSV title or None, headers,
    rows)``.  A header or cell that the two formats spell differently is
    a ``(markdown, csv)`` pair, and ``None`` on one side leaves that cell
    out of that format; a header or row that holds a pair is a tuple,
    one that holds none a list.  A CSV title of ``None`` keeps the table
    out of the CSV; headers of ``None`` make the rows markdown text
    lines.  The matrix cells are formatted in one ``_three_decimals``
    pass, the few record tables cell by cell.
    """
    names = report["correlation"]["names"]
    eig = report["eigen"]
    full = report["loadings_full"]
    rec = report["reconstruction_at_k"]
    prof = report["similarity_profiles"]
    (r, p, angles, det_pct, [eigenvalues], U, loading, det, [row_sums], [column_sums],
     rec_det, [rec_averages], [rec_sums], profiles) = _three_decimals([
        (report["correlation"]["r"], 1.0),
        (report["significance"], 1.0),
        (report["angles_deg"], 1.0),
        (report["determination"], 100.0),
        ([eig["eigenvalues"]], 1.0),
        (eig["U"], 1.0),
        (full["loading"], 1.0),
        (full["determination"], 1.0),
        ([full["row_sums"]], 1.0),
        ([full["column_sums"]], 1.0),
        (rec["determination"], 1.0),
        ([rec["row_averages"]], 100.0),
        ([rec["column_sums"]], 100.0),
        (list(prof["profiles"].values()), 1.0),
    ])

    sections = []
    if report["column_summaries"]:
        sections.append((
            "## Column summaries", "column summaries", ["column", *_STATS],
            _records(report["column_summaries"], "name", _STATS),
        ))
    for md_title, csv_title, rows in (
        ("## Correlation matrix", "correlation", r),
        ("## Significance levels (two-tailed p-values)", "significance", p),
        ("## Angles between variables (degrees)", "angles_deg", angles),
        ("## Determination coefficients (percent)", "determination_percent", det_pct),
    ):
        sections.append((md_title, csv_title, ["", *names], _labelled(names, rows)))

    pcs = [f"pc{i + 1}" for i in range(len(eigenvalues))]
    sections.append((
        "## Eigensystem", None, ["component", "eigenvalue"],
        [[pc, v] for pc, v in zip(pcs, eigenvalues)],
    ))
    sections.append(("Eigenvectors in columns:", None, ["", *pcs], _labelled(names, U)))
    sections.append((
        "## Variance explained", "variance explained",
        ("component", "eigenvalue", "cumulative", "percent",
         ("cumulative percent", "cumulative_percent")),
        _records(report["variance_explained"], "component",
                 ("eigenvalue", "cumulative_eigenvalue", "percent", "cumulative_percent")),
    ))

    sections.append((
        "## Loadings (components vs variables)", "loadings", ["", *full["variables"]],
        _labelled(full["pc_labels"], loading),
    ))
    det_rows = [
        [label, *row, total] for label, row, total in zip(full["pc_labels"], det, row_sums)
    ]
    det_rows.append((("column sum", "column_sum"), *column_sums, ""))
    sections.append((
        "## Determination (components vs variables)", "determination_components",
        ("", *full["variables"], ("row sum", "row_sum")), det_rows,
    ))

    rec_rows = [
        [label, *row, avg] for label, row, avg in zip(rec["pc_labels"], rec_det, rec_averages)
    ]
    rec_rows.append((("reconstruction %", "reconstruction_percent"), *rec_sums, ""))
    sections.append((
        f"## Reconstruction with the first {rec['k']} component(s)", f"reconstruction_k{rec['k']}",
        ("", *rec["variables"], ("row average %", "row_average_percent")), rec_rows,
    ))

    sel = report["selection"]
    sel_rows = []
    for crit in CRITERIA:
        detail = sel[crit]["detail"]
        notes = [f"threshold {detail['threshold']}"] if "threshold" in detail else []
        if detail.get("no_elbow"):
            notes.append("no elbow")
        sel_rows.append((crit, str(sel[crit]["k"]), ("; ".join(notes), None)))
    chosen = sel["chosen_criterion"]
    sel_rows.append(((f"chosen: {chosen}", f"chosen:{chosen}"), str(sel["k"]), ("", None)))
    sections.append((
        "## Component-count selection", "selection", ("criterion", "k", ("notes", None)), sel_rows
    ))

    sections.append((
        "## Similarity profiles", "similarity_profiles", ["variable", *prof["components"]],
        _labelled(prof["profiles"], profiles),
    ))
    sections.append((
        "## Clusters", "clusters", ["cluster", "members"],
        [
            (cid, (", ".join(members) if members else "(empty)", ";".join(members)))
            for cid, members in report["clusters"]["clusters"].items()
        ],
    ))

    scores = report["scores"]
    if scores["available"]:
        sections.append((
            "## Scores", "scores",
            ("component", "mean", "std", ("variance (sample divisor)", "variance_sample")),
            _records(scores["summaries"], "component", _STATS),
        ))
    else:
        sections.append(("## Scores", None, None, [scores["reason"]]))
    sections.append((
        "## Representation identities", "relations",
        ("relation", ("max abs deviation", "max_abs_dev"), ("status", "pass")),
        [
            [c["relation"], f"{c['max_abs_dev']:.3e}", "pass" if c["pass"] else "FAIL"]
            for c in report["relations"]
        ],
    ))
    return sections


def _side(cells: list | tuple, side: int) -> list[str]:
    """One format's cells of a row: a list is the same in both formats; a
    tuple's pairs are resolved to ``side`` and its ``None`` cells dropped."""
    if cells.__class__ is list:
        return cells
    return [
        c if c.__class__ is str else c[side]
        for c in cells
        if c.__class__ is str or c[side] is not None
    ]


def render_markdown(report: dict, sections: list[tuple] | None = None) -> str:
    """Render the analysis report as markdown tables (3-decimal cells).

    ``sections`` is ``_sections(report)`` when the caller has built it
    already, to share with ``render_csv``; by default it is built here.
    """
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
    # every text cell that is not a fixed label holds a variable name, so
    # only a name can put a "|" in a cell; the tables then write it "\|"
    escape = any("|" in name for name in report["correlation"]["names"])
    for title, _, headers, rows in sections or _sections(report):
        lines += [title, ""]
        if headers is None:
            lines += rows
        else:
            headers = _side(headers, 0)
            if escape:
                headers = _escape_pipes(headers)
                rows = [_escape_pipes(_side(row, 0)) for row in rows]
            lines.append("| " + " | ".join(headers) + " |")
            lines.append("| " + " | ".join(["---"] * len(headers)) + " |")
            lines += ["| " + " | ".join(_side(row, 0)) + " |" for row in rows]
        lines.append("")
    return "\n".join(lines)


def _escape_pipes(cells: list[str]) -> list[str]:
    return [c.replace("|", "\\|") for c in cells]


def render_csv(report: dict, sections: list[tuple] | None = None) -> str:
    """Render the report as sectioned CSV with the same 3-decimal cells.

    Each table is a ``# title`` line, a header row and its rows, quoted
    per RFC 4180; a blank line separates tables.  The eigensystem and
    the selection notes are markdown only.  ``sections`` is as for
    ``render_markdown``.
    """
    buf = io.StringIO()
    # a "\r" in the terminator makes the writer quote cells holding one;
    # each row still ends in "\n"
    rows_out = SimpleNamespace(write=lambda line: buf.write(line[:-2] + "\n"))
    writer = csv.writer(rows_out, lineterminator="\r\n")
    for _, title, headers, rows in sections or _sections(report):
        if title is None:
            continue
        buf.write(f"# {title}\n")
        writer.writerow(_side(headers, 1))
        writer.writerows(_side(row, 1) for row in rows)
        buf.write("\n")
    return buf.getvalue()[:-1]
