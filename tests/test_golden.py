"""Pin the exact markdown and CSV report text on the bundled fixtures.

The golden files under ``tests/golden/`` hold ``render_markdown`` and
``render_csv`` output for iris (k-means clusters) and the iris
correlation JSON.  The ``- input:`` line names the absolute fixture
path, so it is normalised before the comparison.  After a deliberate
change to the report text, rewrite a golden file from ``CASES`` with
the same renderer call and ``_normalise``.
"""

import re
from pathlib import Path

import pytest

from pcageom.fixtures import fixture_path
from pcageom.report import render_csv, render_markdown, run_analysis

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "iris_kmeans": (
        fixture_path("iris.csv"),
        {"columns": "1-4", "header": True, "cluster_method": "kmeans"},
    ),
    "iris_corr": (fixture_path("iris_corr.json"), {}),
}


def _normalise(text: str) -> str:
    return re.sub(r"^- input: `[^`]*`", "- input: `<input>`", text, count=1, flags=re.M)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("fmt", ["md", "csv"])
def test_report_text_matches_golden(case, fmt):
    path, kwargs = CASES[case]
    report = run_analysis(path, **kwargs)
    text = render_markdown(report) if fmt == "md" else render_csv(report)
    expected = (GOLDEN / f"{case}.{fmt}").read_text(encoding="utf-8")
    assert _normalise(text) == expected
