"""Standalone SVG renderers for the scree curve and the similarity map.

Both read the report dict alone, in memory or as ``json.loads`` of
``report.json``, and give the same bytes from either.
"""

from __future__ import annotations

from .varcluster import UNASSIGNED, cluster_order

__all__ = ["render_svg_scree", "render_svg_similarity"]

_MARKERS = ("circle", "square", "triangle", "diamond", "cross")
_COLORS = ("#1f6feb", "#d1242f", "#2da44e", "#9a6700", "#8250df")


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def _marker(shape: str, x: float, y: float, color: str, size: float = 5.0) -> str:
    if shape == "square":
        return (
            f'<rect x="{x - size:.2f}" y="{y - size:.2f}" width="{2 * size:.2f}" '
            f'height="{2 * size:.2f}" fill="{color}" />'
        )
    if shape == "triangle":
        pts = f"{x:.2f},{y - size:.2f} {x - size:.2f},{y + size:.2f} {x + size:.2f},{y + size:.2f}"
        return f'<polygon points="{pts}" fill="{color}" />'
    if shape == "diamond":
        pts = (
            f"{x:.2f},{y - size:.2f} {x + size:.2f},{y:.2f} "
            f"{x:.2f},{y + size:.2f} {x - size:.2f},{y:.2f}"
        )
        return f'<polygon points="{pts}" fill="{color}" />'
    if shape == "cross":
        return (
            f'<path d="M {x - size:.2f} {y - size:.2f} L {x + size:.2f} {y + size:.2f} '
            f'M {x - size:.2f} {y + size:.2f} L {x + size:.2f} {y - size:.2f}" '
            f'stroke="{color}" stroke-width="2.5" fill="none" />'
        )
    return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{size:.2f}" fill="{color}" />'


def _page(width: int, height: int, title_x: float, title: str) -> list[str]:
    """The opening ``<svg>`` tag, a white background and the title."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white" />',
        _text(f"{title_x:.0f}", 24, title, 16),
    ]


def _text(x, y, body: str, size: int, anchor: str = "middle", extra: str = "") -> str:
    """One ``<text>`` element; ``x`` and ``y`` are written as given and an
    empty ``anchor`` leaves out ``text-anchor``."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
        f'font-size="{size}"{extra}>{body}</text>'
    )


def _line(x1, y1, x2, y2, stroke: str) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="1" />'


def _axis_titles(height: int, x_mid: float, x_title: str, y_title: str) -> list[str]:
    """The two axis titles and the closing ``</svg>``."""
    y_mid = f"{height / 2:.0f}"
    return [
        _text(f"{x_mid:.0f}", height - 12, x_title, 12),
        _text(18, y_mid, y_title, 12, extra=f' transform="rotate(-90 18 {y_mid})"'),
        "</svg>",
    ]


def render_svg_scree(report: dict) -> str:
    """The report's ``eigen.eigenvalues`` against component index, largest
    first, as an SVG line."""
    series = list(enumerate(map(float, report["eigen"]["eigenvalues"]), start=1))
    if not series:
        raise ValueError("svgplot: empty scree series")
    width, height = 640, 420
    left, right, top, bottom = 64, 24, 44, 56
    plot_w = width - left - right
    plot_h = height - top - bottom
    y_max = max(v for _, v in series)
    if y_max <= 0.0:
        y_max = 1.0
    y_max *= 1.08
    n = len(series)

    def sx(i: int) -> float:
        if n == 1:
            return left + plot_w / 2
        return left + plot_w * (i - 1) / (n - 1)

    def sy(v: float) -> float:
        return top + plot_h * (1.0 - v / y_max)

    parts = _page(width, height, width / 2, "Scree plot")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = y_max * frac
        y = sy(v)
        parts.append(_line(left, f"{y:.2f}", width - right, f"{y:.2f}", "#dddddd"))
        parts.append(_text(left - 8, f"{y + 4:.2f}", f"{v:.2f}", 11, anchor="end"))
    pts = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in series)
    if n > 1:
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f6feb" stroke-width="2" />')
    for i, v in series:
        x = f"{sx(i):.2f}"
        parts.append(f'<circle cx="{x}" cy="{sy(v):.2f}" r="4" fill="#1f6feb" />')
        parts.append(_text(x, height - bottom + 20, i, 12))
    parts.append(_line(left, top, left, height - bottom, "#333333"))
    parts.append(_line(left, height - bottom, width - right, height - bottom, "#333333"))
    parts += _axis_titles(height, width / 2, "component", "eigenvalue")
    return "\n".join(parts)


def render_svg_similarity(report: dict) -> str:
    """Variables placed at (similarity to pc1, similarity to pc2).

    Reads the rows of ``similarity_profiles.profiles`` in
    ``reconstruction_at_k.variables`` order and ``clusters.clusters``.
    Defined only for two-component profiles; marker shape encodes the
    cluster.  Both axes span [0, 1].
    """
    profiles = report["similarity_profiles"]["profiles"]
    rows = [(name, profiles[name]) for name in report["reconstruction_at_k"]["variables"]]
    if not rows:
        raise ValueError("svgplot: no profiles to plot")
    bad = next(((name, len(values)) for name, values in rows if len(values) != 2), None)
    if bad is not None:
        raise ValueError(
            "svgplot: the similarity map is defined for exactly 2 components; "
            f"profile for {bad[0]!r} has {bad[1]}"
        )
    width, height = 560, 520
    left, right, top, bottom = 64, 150, 44, 56
    plot_w = width - left - right
    plot_h = height - top - bottom
    x_mid = (left + width - right) / 2

    def sx(v: float) -> float:
        return left + plot_w * v

    def sy(v: float) -> float:
        return top + plot_h * (1.0 - v)

    clusters = report["clusters"]["clusters"]
    cluster_ids = cluster_order(clusters)
    cluster_of = {name: cid for cid, members in clusters.items() for name in members}
    style = {
        cid: (_MARKERS[i % len(_MARKERS)], _COLORS[i % len(_COLORS)])
        for i, cid in enumerate(cluster_ids)
    }

    parts = _page(width, height, x_mid, "Variable similarity map")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x, y = f"{sx(frac):.2f}", f"{sy(frac):.2f}"
        parts.append(_line(x, top, x, height - bottom, "#eeeeee"))
        parts.append(_line(left, y, width - right, y, "#eeeeee"))
        parts.append(_text(x, height - bottom + 18, f"{frac:.2f}", 11))
        parts.append(_text(left - 8, f"{sy(frac) + 4:.2f}", f"{frac:.2f}", 11, anchor="end"))
    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" fill="none" '
        f'stroke="#333333" stroke-width="1" />'
    )
    for name, values in rows:
        shape, color = style.get(cluster_of.get(name, UNASSIGNED), ("cross", "#666666"))
        x = sx(float(values[0]))
        y = sy(float(values[1]))
        parts.append(_marker(shape, x, y, color))
        parts.append(_text(f"{x + 9:.2f}", f"{y - 7:.2f}", _esc(name), 11, anchor=""))
    legend_x = width - right + 16
    legend_y = top + 6
    for i, cid in enumerate(cluster_ids):
        shape, color = style[cid]
        y = legend_y + i * 20
        parts.append(_marker(shape, legend_x, y, color, size=4.5))
        parts.append(_text(legend_x + 12, y + 4, _esc(cid), 12, anchor=""))
    parts += _axis_titles(height, x_mid, "similarity to pc1", "similarity to pc2")
    return "\n".join(parts)
