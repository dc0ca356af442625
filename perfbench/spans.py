"""Outside-in tracing: wrap the module-level names pcageom's layers call.

Callers inside pcageom look functions up in their own module's globals
(``report`` calls ``pcageom.report.load_csv``, ``cli`` calls
``pcageom.cli.run_analysis``), so replacing those attributes for the
duration of one analysis puts a span around every layer boundary
without touching the package.  A hooked name that no longer exists is
reported as missing and skipped; it never raises and never runs in the
untraced analyses that give the end-to-end numbers.  So is a field of a
return value that a count is read from: a renamed field must not read
as a count of zero.

Three hot leaves (``betainc_reg``, ``assign_labels`` and
``point_distance``) are only counted: a span per call would cost more
than the call itself.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

LAYERS = ("cli", "report", "ingest", "corrstats", "eigensolve", "tensorops",
          "pcacore", "varcluster", "svgplot")

OBJECTIVE_TIE = 1e-12


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    span: str  # "<layer>.<function>"; the metric is span + "_s"
    count_only: bool = False


def _hooks() -> list[Hook]:
    hooks = [Hook("pcageom.cli", a, f"{layer}.{a}") for a, layer in (
        ("run_analysis", "report"), ("render_markdown", "report"), ("render_csv", "report"),
        ("to_json_text", "report"), ("render_svg_scree", "svgplot"),
        ("render_svg_similarity", "svgplot"))]
    hooks += [Hook("pcageom.report", a, f"{layer}.{a}") for a, layer in (
        ("parse_column_spec", "ingest"), ("load_csv", "ingest"), ("summarize", "ingest"),
        ("standardize", "ingest"), ("load_correlation_json", "corrstats"),
        ("correlation_matrix", "corrstats"), ("derived_matrices", "corrstats"),
        ("eigen_symmetric", "eigensolve"), ("build_virtual", "tensorops"),
        ("verify_relations", "tensorops"), ("variance_explained", "pcacore"),
        ("explanation_table", "pcacore"), ("select_components", "pcacore"),
        ("project_scores", "pcacore"), ("scree_data", "pcacore"),
        ("similarity_profiles", "varcluster"), ("cluster_naive", "varcluster"),
        ("cluster_kmeans", "varcluster"))]
    hooks += [
        Hook("pcageom.eigensolve", "jacobi_sweeps", "eigensolve.jacobi_sweeps"),
        Hook("pcageom.varcluster", "lloyd", "varcluster.lloyd"),
        Hook("pcageom.corrstats", "betainc_reg", "corrstats.betainc", count_only=True),
        Hook("pcageom.varcluster", "assign_labels", "varcluster.assign_labels", count_only=True),
        Hook("pcageom.varcluster", "point_distance", "varcluster.point_distance", count_only=True),
    ]
    return hooks


HOOKS = _hooks()


_ABSENT = object()


def _field(tracer: "Tracer", span: str, obj, attr: str):
    """``obj.attr``, or ``None`` with ``<span>.<attr>`` reported missing, so a
    renamed field never reads as a count of zero."""
    value = getattr(obj, attr, _ABSENT)
    if value is _ABSENT:
        tracer.report_missing(f"{span}.{attr}")
        return None
    return value


def _observe(tracer: "Tracer", span: str, result) -> None:
    """Counts read off a layer's return value at its boundary."""
    c = tracer.counts
    if span == "ingest.load_csv":
        values = _field(tracer, span, result, "values")
        if values is not None:
            c["ingest.cells"] += np.size(values)
    elif span == "eigensolve.eigen_symmetric":
        sweeps = _field(tracer, span, result, "sweeps")
        n = _field(tracer, span, result, "n")
        if sweeps is not None and n is not None:
            c["eigensolve.sweeps"] += sweeps
            c["eigensolve.rotations"] += sweeps * n * (n - 1) // 2
    elif span == "tensorops.verify_relations":
        devs = [_field(tracer, span, chk, "max_abs_dev") for chk in result or ()]
        if devs and None not in devs:
            c["tensorops.max_identity_dev"] = max(c["tensorops.max_identity_dev"], *devs)
    elif span == "varcluster.lloyd":
        history = _field(tracer, span, result, "history")
        objective = _field(tracer, span, result, "objective")
        if history is not None and objective is not None:
            c["varcluster.lloyd_runs"] += 1
            c["varcluster.lloyd_iterations"] += max(0, len(history) - 1)
            tracer.restarts.append(objective)
    elif span == "report.to_json_text":
        if isinstance(result, str):
            c["report.json_bytes"] += len(result.encode("utf-8"))
        else:
            tracer.report_missing(f"{span} returning str")
    elif span == "report.render_markdown":
        c["report.render_markdown_calls"] += 1


class Tracer:
    """Collects spans for the analyses run between ``install`` and ``remove``.

    Spans are kept in memory as tuples
    ``(analysis, index, parent_index, name, start_s, end_s, self_s)`` and
    written out by the caller when the run ends.  Per-name inclusive and
    self times, and the counters, accumulate across traced analyses.
    """

    def __init__(self, hooks: list[Hook] = HOOKS):
        self.hooks = hooks
        self.missing: list[str] = []
        self.spans: list[tuple] = []
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.restarts: list[float] = []
        self.analyses = 0
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._next_index = 0

    def report_missing(self, name: str) -> None:
        if name not in self.missing:
            self.missing.append(name)

    def install(self) -> None:
        for hook in self.hooks:
            try:
                module = importlib.import_module(hook.module)
                original = getattr(module, hook.attr)
            except (ImportError, AttributeError):
                self.report_missing(f"{hook.module}.{hook.attr}")
                continue
            self._saved.append((module, hook.attr, original))
            setattr(module, hook.attr, self._wrap(hook, original))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        if hook.count_only:
            key = hook.span + "_calls"
            counts = self.counts

            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        def spanned(*args, **kwargs):
            self.open(hook.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            _observe(self, hook.span, result)
            return result

        return spanned

    def open(self, name: str) -> None:
        if name == "varcluster.cluster_kmeans":
            self.restarts = []
        self._stack.append([name, self._next_index, time.perf_counter(), 0.0])
        self._next_index += 1

    def close(self) -> None:
        end = time.perf_counter()
        name, index, start, child_s = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.inclusive[name] += duration
        self.self_time[name] += duration - child_s
        self.spans.append((self.analyses, index, parent[1] if parent else None, name,
                           start, end, duration - child_s))
        if name == "varcluster.cluster_kmeans" and self.restarts:
            best = min(self.restarts)
            self.counts["varcluster.restarts_run"] += len(self.restarts)
            self.counts["varcluster.restarts_at_best"] += sum(
                o <= best + OBJECTIVE_TIE * max(1.0, abs(best)) for o in self.restarts)

    def metrics(self) -> dict[str, float]:
        """Per-analysis means of every span time and counter, plus layer self times."""
        n = max(1, self.analyses)
        out: dict[str, float] = {}
        for name, total in self.inclusive.items():
            out[name + "_s"] = total / n
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, total in self.self_time.items():
            layer_self[name.split(".")[0]] += total
        for layer, total in layer_self.items():
            out[layer + ".self_s"] = total / n
        for name, total in self.counts.items():
            out[name] = total if name == "tensorops.max_identity_dev" else total / n
        runs = self.counts.get("varcluster.restarts_run", 0.0)
        out["varcluster.best_restart_share"] = (
            self.counts.get("varcluster.restarts_at_best", 0.0) / runs if runs else 0.0)
        return out
