"""2-D picture of an instance.

Math coordinates are preserved: every element sits in a group with
transform="translate(0, alpha) scale(1, -1)", so a parser can read point
coordinates straight off the elements and reason in problem space (y grows
upward).  Elements carry classes: "support", "random" and "objective" lines,
two dashed "ball" circles with radii rho and theta around the center, and the
"feasible" polygon.
"""
from __future__ import annotations

import numpy as np

from .geometry import row_norms
from .io import _fmt
from .model import LPInstance, UnsupportedDimensionError


def _clip_line(a, bval: float, lo: float, hi: float):
    """Endpoints of the line a.x = b within the [lo, hi]^2 box, or None."""
    a1, a2 = float(a[0]), float(a[1])
    tol = 1e-9 * max(1.0, abs(lo), abs(hi))
    pts: list[tuple[float, float]] = []
    if a2 != 0.0:
        for x in (lo, hi):
            y = (bval - a1 * x) / a2
            if lo - tol <= y <= hi + tol:
                pts.append((x, y))
    if a1 != 0.0:
        for y in (lo, hi):
            x = (bval - a2 * y) / a1
            if lo - tol <= x <= hi + tol:
                pts.append((x, y))
    # dedup corner hits, then take the extreme pair along the line direction
    uniq: list[tuple[float, float]] = []
    for pt in pts:
        if not any(abs(pt[0] - u[0]) <= tol and abs(pt[1] - u[1]) <= tol for u in uniq):
            uniq.append(pt)
    if len(uniq) < 2:
        return None
    along = [(-a2 * x + a1 * y, (x, y)) for x, y in uniq]
    along.sort(key=lambda s: s[0])
    return along[0][1], along[-1][1]


def _feasible_polygon(rows):
    """Vertices of the feasible region, ordered around its centroid."""
    A = np.stack([q.a for q in rows])
    b = np.array([q.b for q in rows])
    slack = b + 1e-7 * np.maximum(1.0, np.abs(b))
    norms = row_norms(A)
    pts: list[np.ndarray] = []
    m = len(rows)
    for i in range(m):
        for j in range(i + 1, m):
            det = A[i, 0] * A[j, 1] - A[i, 1] * A[j, 0]
            if abs(det) <= 1e-12 * norms[i] * norms[j]:
                continue
            x = np.array(
                [
                    (b[i] * A[j, 1] - b[j] * A[i, 1]) / det,
                    (A[i, 0] * b[j] - A[j, 0] * b[i]) / det,
                ]
            )
            if not np.all(A @ x <= slack):
                continue
            if not any(np.max(np.abs(x - p)) <= 1e-7 for p in pts):
                pts.append(x)
    if len(pts) < 3:
        return None
    center = np.mean(pts, axis=0)
    pts.sort(key=lambda p: np.arctan2(p[1] - center[1], p[0] - center[0]))
    return pts


def render_svg(inst: LPInstance) -> str:
    if inst.n != 2:
        raise UnsupportedDimensionError(f"drawing requires n = 2, got n = {inst.n}")
    p = inst.params
    alpha = p.alpha
    margin = 0.15 * alpha
    lo, hi = -margin, alpha + margin
    span = hi - lo
    cx = alpha / 2.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(lo)} {_fmt(lo)} {_fmt(span)} {_fmt(span)}">',
        f'<g transform="translate(0,{_fmt(alpha)}) scale(1,-1)">',
    ]

    polygon = _feasible_polygon(list(inst.constraints))
    if polygon is not None:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in polygon)
        parts.append(
            f'<polygon class="feasible" points="{coords}" '
            f'fill="#1f77b4" fill-opacity="0.15" stroke="none"/>'
        )

    for radius in (p.rho, p.theta):
        parts.append(
            f'<circle class="ball" cx="{_fmt(cx)}" cy="{_fmt(cx)}" r="{_fmt(radius)}" '
            f'fill="none" stroke="#2ca02c" stroke-width="0.8" stroke-dasharray="4 3"/>'
        )

    def line_element(cls: str, a, bval: float, color: str, width: float) -> str | None:
        seg = _clip_line(a, bval, lo, hi)
        if seg is None:
            return None
        (x1, y1), (x2, y2) = seg
        return (
            f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="{color}" '
            f'stroke-width="{width:g}"/>'
        )

    for q in inst.support:
        el = line_element("support", q.a, q.b, "#222222", 0.8)
        if el:
            parts.append(el)
    for q in inst.random:
        el = line_element("random", q.a, q.b, "#d62728", 1.2)
        if el:
            parts.append(el)
    # objective direction as a line through the origin along c
    el = line_element("objective", (-inst.c[1], inst.c[0]), 0.0, "#9467bd", 1.2)
    if el:
        parts.append(el)

    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
