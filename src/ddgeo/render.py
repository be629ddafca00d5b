"""Minimal SVG rendering of paths and their arc/bridge structure."""

from __future__ import annotations

import bisect

from .model import DiscretePath, Params, augmented
from .smooth import SmoothPath
from .structure import PathStructure


def _viewbox(points, margin_frac=0.05):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    w = max(x1 - x0, 1e-6)
    h = max(y1 - y0, 1e-6)
    m = margin_frac * max(w, h)
    return x0 - m, y0 - m, w + 2 * m, h + 2 * m


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _coords(points) -> list[tuple[str, str]]:
    """SVG coordinates of the points (y flipped), each formatted once."""
    return [(_fmt(p[0]), _fmt(-p[1])) for p in points]


def _polyline(coords, color, width, dashed=False):
    pts = " ".join(f"{x},{y}" for x, y in coords)
    dash = ' stroke-dasharray="0.12 0.08"' if dashed else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}" stroke-linecap="round"{dash}/>')


def render_path_svg(path: DiscretePath, params: Params,
                    structure: PathStructure | None = None) -> str:
    """SVG picture of a discrete path: arcs highlighted, bridges dashed,
    boundary headings as small arrows.  ``structure`` must be the path's own:
    its pieces are cut at the vertex positions it was measured on."""
    pts = augmented(path, params)
    pre, post = pts[0], pts[-1]
    x, y, w, h = _viewbox(pts)
    stroke = 0.012 * max(w, h)
    verts = _coords(path.vertices)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x)} {_fmt(-y - h)} {_fmt(w)} {_fmt(h)}">',
        _polyline(_coords([pre]) + verts[:1], "#bbbbbb", stroke * 0.7, dashed=True),
        _polyline(verts[-1:] + _coords([post]), "#bbbbbb", stroke * 0.7, dashed=True),
        _polyline(verts, "#1f3b57", stroke),
    ]
    if structure is not None:
        for arc in structure.arcs:
            seg = _structure_points(verts, structure.vertex_s, arc)
            parts.append(_polyline(seg, "#d9822b", stroke * 1.4))
        for b in structure.bridges:
            seg = _structure_points(verts, structure.vertex_s, b)
            parts.append(_polyline(seg, "#2b7bd9", stroke * 1.1, dashed=True))
    r = _fmt(stroke)
    parts += [f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="#1f3b57"/>'
              for cx, cy in verts]
    parts.append("</svg>")
    return "\n".join(parts)


def _structure_points(verts: list[tuple[str, str]], vertex_s: list[float], piece):
    """The SVG coordinates of an arc or bridge: its end points and the path
    vertices strictly between them, sliced from ``verts``, the vertices'
    coordinates.  ``vertex_s`` holds the vertices' arclength positions."""
    inside = verts[bisect.bisect_right(vertex_s, piece.start_s):
                   bisect.bisect_left(vertex_s, piece.end_s)]
    return _coords([piece.start_pt]) + inside + _coords([piece.end_pt])


def render_smooth_svg(gamma: SmoothPath, samples: int = 256,
                      overlay: DiscretePath | None = None) -> str:
    """SVG of a smooth path (sampled) with an optional discrete overlay."""
    pts = [p for p, _ in gamma.sample([t * gamma.length / samples for t in range(samples + 1)])]
    every = list(pts) + (list(overlay.vertices) if overlay is not None else [])
    x, y, w, h = _viewbox(every)
    stroke = 0.012 * max(w, h)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x)} {_fmt(-y - h)} {_fmt(w)} {_fmt(h)}">',
        _polyline(_coords(pts), "#777777", stroke),
    ]
    if overlay is not None:
        parts.append(_polyline(_coords(overlay.vertices), "#1f3b57", stroke * 0.8, dashed=True))
    parts.append("</svg>")
    return "\n".join(parts)
