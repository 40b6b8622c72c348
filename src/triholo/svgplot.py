"""Minimal SVG emitters (presentation only, excluded from any hashing)."""

from __future__ import annotations

import math

SIZE = 480   # side of the scatter plot and the heatmap's target side, in px


def _viewbox(points):
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    w = (x1 - x0) or 1.0
    h = (y1 - y0) or 1.0
    pad = 0.1 * max(w, h)
    return x0 - pad, y0 - pad, w + 2 * pad, h + 2 * pad


def scatter_hull_svg(points, hull) -> str:
    """Scatter of psi-hat images with the boundary hull polygon."""
    pts = [(float(p[0]), float(p[1])) for p in points]
    hl = [(float(p[0]), float(p[1])) for p in hull]
    x0, y0, w, h = _viewbox(pts + hl or [(0.0, 0.0)])
    scale = SIZE / max(w, h)

    def sx(x):
        return (x - x0) * scale

    def sy(y):
        return SIZE - (y - y0) * scale  # flip: math orientation

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}">']
    if len(hl) >= 2:
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in hl)
        out.append(f'<polygon points="{path}" fill="#dce9f7" stroke="#34679a" '
                   f'stroke-width="1.5"/>')
    for x, y in pts:
        out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#b03a2e"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def lattice_heatmap_svg(f) -> str:
    """Signed heatmap of a windowed lattice function (red/blue, log scale)."""
    w = f.window
    nx = w.x1 - w.x0 + 1
    ny = w.y1 - w.y0 + 1
    cell = max(4, SIZE // max(nx, ny))
    vals = {p: float(f[p]) for p in w.points()}
    vmax = max(abs(v) for v in vals.values()) or 1.0
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{nx * cell}" height="{ny * cell}">']
    for (x, y), v in sorted(vals.items()):
        if v == 0:
            color = "#f5f5f5"
        else:
            t = math.log1p(abs(v)) / math.log1p(vmax)
            level = int(240 - 160 * t)
            color = (f"rgb(255,{level},{level})" if v > 0
                     else f"rgb({level},{level},255)")
        px = (x - w.x0) * cell
        py = (w.y1 - y) * cell
        out.append(f'<rect x="{px}" y="{py}" width="{cell}" height="{cell}" '
                   f'fill="{color}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
