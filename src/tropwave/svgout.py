"""Deterministic SVG rendering of tropical curves: faces tinted by monomial,
edges stroked with width proportional to weight, marked input points."""

from __future__ import annotations

from typing import Sequence

SIZE = 480.0
MARGIN = 24.0


def _pastel(v) -> str:
    # stable tint per exponent
    h = (v[0] * 73856093 ^ v[1] * 19349663) & 0xFFFFFF
    r = 200 + (h & 0x3F) // 2
    g = 200 + ((h >> 8) & 0x3F) // 2
    b = 200 + ((h >> 16) & 0x3F) // 2
    return f"rgb({r},{g},{b})"


def render_curve(curve, *, points: Sequence = ()) -> str:
    poly = curve.series.domain
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0)
    scale = (SIZE - 2 * MARGIN) / float(span)

    def sx(x):
        return MARGIN + (float(x) - float(x0)) * scale

    def sy(y):
        return SIZE - MARGIN - (float(y) - float(y0)) * scale

    def pts_attr(vertices):
        return " ".join(f"{sx(p[0]):.3f},{sy(p[1]):.3f}" for p in vertices)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE:.0f}" '
           f'height="{SIZE:.0f}" viewBox="0 0 {SIZE:.0f} {SIZE:.0f}">']
    for v, region in sorted(curve.faces.items()):
        if len(region) >= 3:
            out.append(f'<polygon points="{pts_attr(region)}" fill="{_pastel(v)}" '
                       f'stroke="none"><title>monomial {v}</title></polygon>')
    out.append(f'<polygon points="{pts_attr(poly.vertices)}" fill="none" '
               f'stroke="#444" stroke-width="1.5" stroke-dasharray="6,4"/>')
    for e in sorted(curve.edges, key=lambda e: (e.dual, e.a, e.b)):
        out.append(f'<line x1="{sx(e.a[0]):.3f}" y1="{sy(e.a[1]):.3f}" '
                   f'x2="{sx(e.b[0]):.3f}" y2="{sy(e.b[1]):.3f}" '
                   f'stroke="#111" stroke-width="{1.2 * e.weight:.1f}"/>')
    for p in points:
        out.append(f'<circle cx="{sx(p[0]):.3f}" cy="{sy(p[1]):.3f}" r="4" '
                   f'fill="#c22"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
