"""Per-analysis correctness gate.

``check`` compares the files one ``analyze`` call wrote with references
computed from the input by NumPy/SciPy (see ``inputs.build``) and
returns the list of problems; an empty list means the analysis passed.
Every tolerance lives in ``tolerances.json`` beside this file and is
copied into each result record.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TOLERANCES = json.loads((Path(__file__).with_name("tolerances.json")).read_text(encoding="utf-8"))

N_RELATIONS = 22
OUTPUT_FILES = ("report.json", "report.md", "scree.svg")


def clear_outputs(out_dir: Path) -> None:
    """Remove the previous analysis's files so each check sees fresh ones."""
    for name in (*OUTPUT_FILES, "similarity.svg"):
        (out_dir / name).unlink(missing_ok=True)


def _close(name: str, got, want, atol: float, rtol: float = 0.0) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    bad = np.abs(got - want) > atol + rtol * np.abs(want)
    if np.any(bad):
        worst = float(np.max(np.abs(got - want)))
        return [f"{name}: {int(bad.sum())} entries off, max deviation {worst:.3e}"]
    return []


def check(out_dir: Path, refs: dict, rc: int, metric: str | None = None) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    missing = [n for n in OUTPUT_FILES if not (out_dir / n).is_file()]
    if missing:
        return [f"missing output files {missing}"]
    try:
        rep = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]

    tol = TOLERANCES
    problems: list[str] = []
    try:
        k = rep["provenance"]["k"]
        if (out_dir / "similarity.svg").is_file() != (k == 2):
            problems.append(f"similarity.svg presence wrong for k = {k}")
        problems += _close("eigenvalues", rep["eigen"]["eigenvalues"], refs["eigenvalues"],
                           tol["eigenvalue_abs"])
        if refs["r"] is not None:
            problems += _close("correlation", rep["correlation"]["r"], refs["r"],
                               tol["correlation_abs"])
        problems += _close("p-values", rep["significance"], refs["p_values"],
                           tol["p_value_abs"], tol["p_value_rel"])

        devs = [c["max_abs_dev"] for c in rep["relations"]]
        if len(devs) != N_RELATIONS or max(devs) > tol["relation_max_dev"]:
            problems.append(f"relations: {len(devs)} reported, worst {max(devs, default=0):.3e}")

        if refs["per_variable_margin"] > tol["selection_tie"]:
            got = rep["selection"]["per_variable"]["k"]
            if got != refs["per_variable_k"]:
                problems.append(f"per_variable k = {got}, expected {refs['per_variable_k']}")
            if k != refs["k"]:
                problems.append(f"selected k = {k}, expected {refs['k']}")

        names = rep["correlation"]["names"]
        members = [m for group in rep["clusters"]["clusters"].values() for m in group]
        if len(names) != refs["n_vars"] or sorted(members) != sorted(names):
            problems.append("clusters do not partition the variables exactly once each")

        want = refs["objectives"].get(metric) if metric else None
        if want is not None:
            got = rep["clusters"]["objective"]
            if got > want * (1.0 + tol["objective_rel"]) + tol["objective_abs"]:
                problems.append(f"{metric} objective {got!r} above recorded {want!r}")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"report.json malformed: {type(exc).__name__}: {exc}")
    return problems
