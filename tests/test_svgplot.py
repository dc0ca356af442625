"""SVG rendering: well-formed markup, no markup injection, sane geometry."""

import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pcageom.fixtures import fixture_path
from pcageom.report import run_analysis
from pcageom.svgplot import render_svg_scree, render_svg_similarity
from pcageom.varcluster import cluster_kmeans

CORR = fixture_path("iris_corr.json")


def scree_report(eigenvalues):
    """The report block the scree plot reads."""
    return {"eigen": {"eigenvalues": eigenvalues}}


def map_report(profiles, clusters):
    """The report blocks the similarity map reads; ``profiles`` maps each
    variable, in order, to its profile."""
    return {
        "reconstruction_at_k": {"variables": list(profiles)},
        "similarity_profiles": {"profiles": profiles},
        "clusters": {"clusters": clusters},
    }


def tags(svg_text):
    root = ET.fromstring(svg_text)
    return [el.tag.split("}")[-1] for el in root.iter()]


def texts(svg_text):
    root = ET.fromstring(svg_text)
    return [el.text for el in root.iter() if el.tag.endswith("text") and el.text]


def test_scree_is_wellformed_xml(eigen_fixture):
    svg = render_svg_scree(scree_report(eigen_fixture.eigenvalues))
    names = tags(svg)
    assert names[0] == "svg"
    assert names.count("circle") == 4
    assert names.count("polyline") == 1
    labels = texts(svg)
    assert "Scree plot" in labels
    assert "component" in labels and "eigenvalue" in labels
    # tick labels cover every component index
    for i in "1234":
        assert i in labels


def test_scree_single_point_has_no_line():
    svg = render_svg_scree(scree_report([2.0]))
    names = tags(svg)
    assert names.count("circle") == 1
    assert names.count("polyline") == 0


def test_scree_points_follow_the_eigenvalues(eigen_fixture):
    # one point per eigenvalue, at indices 1..n, each as high above the
    # x axis (y = 364) as its eigenvalue is large
    eigenvalues = eigen_fixture.eigenvalues
    root = ET.fromstring(render_svg_scree(scree_report(eigenvalues)))
    points = [(el.get("cx"), 364.0 - float(el.get("cy")))
              for el in root.iter() if el.tag.endswith("circle")]
    ticks = [(el.get("x"), el.text) for el in root.iter() if el.tag.endswith("text") and el.get("y") == "384"]
    assert ticks == [(x, str(i)) for i, (x, _) in enumerate(points, start=1)]
    assert [h / points[0][1] for _, h in points] == pytest.approx(eigenvalues / eigenvalues[0], abs=1e-4)


def test_scree_rejects_empty_series():
    with pytest.raises(ValueError, match="empty"):
        render_svg_scree(scree_report([]))


def test_similarity_map_markers_and_legend():
    svg = render_svg_similarity(run_analysis(CORR, cluster_method="kmeans", metric="l2"))
    root = ET.fromstring(svg)
    labels = texts(svg)
    assert "Variable similarity map" in labels
    assert "similarity to pc1" in labels and "similarity to pc2" in labels
    # legend names both clusters
    assert "c1" in labels and "c2" in labels
    # every variable is annotated next to its marker
    for name in ("Sepal Length", "Sepal Width", "Petal Length", "Petal Width"):
        assert name in labels
    assert root.get("width") == "560"


def test_similarity_map_requires_two_components():
    report = run_analysis(CORR, k=4, cluster_method="kmeans", metric="l2")
    with pytest.raises(ValueError, match="exactly 2"):
        render_svg_similarity(report)
    with pytest.raises(ValueError, match="no profiles"):
        render_svg_similarity(map_report({}, report["clusters"]["clusters"]))


def test_variable_names_are_escaped():
    evil = 'x<&>"1'
    names = [evil, "y", "z"]
    profiles = np.array([[0.9, 0.05], [0.1, 0.8], [0.2, 0.7]])
    clusters = cluster_kmeans(profiles, names, 2, metric="l2").clusters
    svg = render_svg_similarity(map_report(dict(zip(names, profiles)), clusters))
    assert evil in texts(svg)  # parses back to the original name
    assert "x<&>" not in svg  # but never appears raw in the markup


def test_similarity_map_names_the_offending_profile_length():
    report = map_report({"a": [0.5, 0.5], "b": [0.2, 0.3, 0.5]}, {"c1": ["a"]})
    with pytest.raises(ValueError, match="profile for 'b' has 3$"):
        render_svg_similarity(report)


def _pinned_map():
    """Eight variables in six clusters plus unassigned: every marker shape
    and the wrap back to the first shape and colour."""
    points = [("a", 0.95, 0.02), ("b", 0.1, 0.85), ("c", 0.5, 0.5), ("d", 0.0, 1.0),
              ("e & <f>", 1.0, 0.0), ("g", 0.333, 0.25), ("h", 0.72, 0.61), ("i", 0.4, 0.05)]
    clusters = {"c1": ["a"], "c2": ["b"], "c3": ["c"], "c4": ["d"], "c5": ["e & <f>"],
                "c6": ["g"], "unassigned": ["h"]}
    return render_svg_similarity(map_report({name: [x, y] for name, x, y in points}, clusters))


def _pinned_unlisted_map():
    """A variable in no cluster, with no unassigned cluster: a grey cross
    that the legend leaves out."""
    return render_svg_similarity(map_report({"x": [0.8, 0.1], "y": [0.3, 0.6]}, {"c1": ["x"]}))


# sha256 of each SVG's UTF-8 text; the inputs are hand-built, so no NumPy
# or BLAS build can move a coordinate
PINNED_SVGS = {
    "scree_single_point": (
        lambda: render_svg_scree(scree_report([2.0])),
        "ca601c479edea6299ae6cf04aa17c8872f65bd78c3ec6ffced86cf6a37892ada"),
    "scree_all_zero": (
        lambda: render_svg_scree(scree_report([0.0, 0.0, 0.0])),
        "6d2bfd7d04deab9b38f11a7fa6d5c7e0e3a14d690687e94acc7d383389125312"),
    "scree_four": (
        lambda: render_svg_scree(scree_report([2.849, 0.961, 0.158, 0.033])),
        "76358c27cb1e350883c0332a85a0af925d0fe4a36597ebd18521b2c563fe3838"),
    "similarity_six_clusters": (
        _pinned_map, "9be7d2453758e34b233f3d89658609344981c8971b84b7a85437c04181d1f794"),
    "similarity_unlisted_variable": (
        _pinned_unlisted_map, "1b9239d5252b1ae5c850f6492cb21d31f4594a8379b3bb993faf25c2dc3b7d53"),
}


@pytest.mark.parametrize("name", PINNED_SVGS)
def test_svg_bytes_are_pinned(name):
    render, digest = PINNED_SVGS[name]
    assert hashlib.sha256(render().encode("utf-8")).hexdigest() == digest
