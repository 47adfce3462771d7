"""2-D picture of an instance.

Math coordinates are preserved: every element sits in a group with
transform="translate(0, alpha) scale(1, -1)", so a parser can read point
coordinates straight off the elements and reason in problem space (y grows
upward).  Elements carry classes: "support", "random" and "objective" lines,
two dashed "ball" circles with radii rho and theta around the center, and the
"feasible" polygon.

The geometry is two clippers against the view box [lo, hi]^2.  The
"feasible" polygon is the part of the region inside the view: the box
clipped by each constraint's half-plane a.x <= b in turn (Sutherland and
Hodgman, "Reentrant polygon clipping", CACM 17(1), 1974).  Each line a.x = b
is clipped to the box by its parameter interval (Liang and Barsky, "A new
concept and method for line clipping", ACM TOG 3(1), 1984).  Neither
enumerates vertices or uses a tolerance.
"""
from __future__ import annotations

import numpy as np

from .io import _fmt
from .model import LPInstance, UnsupportedDimensionError


def _clip_line(a, bval: float, lo: float, hi: float):
    """Endpoints of the line a.x = b within the [lo, hi]^2 box, or None when
    it misses the box, touches it at one point, or a is zero or a or b is
    not finite."""
    a = np.asarray(a, dtype=np.float64)
    mid = (lo + hi) / 2
    with np.errstate(all="ignore"):
        # the line's point nearest the box's center, and its direction
        x0 = mid + (bval - a.sum() * mid) / (a @ a) * a
        u = np.array([-a[1], a[0]])
        # x0 + t*u is in the box while p*t <= q for each of the four edges
        p = np.concatenate((-u, u))
        q = np.concatenate((x0 - lo, hi - x0))
        t = q / p
        # max and min carry a nan through, and a nan fails every test below
        enter = np.max(t[p < 0], initial=-np.inf)
        leave = np.min(t[p > 0], initial=np.inf)
    if not (enter < leave and np.all(q[p == 0] >= 0)):
        return None
    return x0 + enter * u, x0 + leave * u


def _feasible_polygon(rows, lo: float, hi: float):
    """The [lo, hi]^2 box clipped by each row's half-plane a.x <= b, as its
    vertices counterclockwise, or None when fewer than 3 remain."""
    polygon = [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]
    for q in rows:
        a1, a2 = q.a.tolist()
        side = [a1 * x + a2 * y - q.b for x, y in polygon]
        cut = []
        # the edge from vertex k-1 to vertex k: a point where its ends'
        # sides are strictly opposite, then its end when that is kept
        for k, ((x1, y1), s1) in enumerate(zip(polygon, side)):
            (x0, y0), s0 = polygon[k - 1], side[k - 1]
            if s0 < 0 < s1 or s1 < 0 < s0:
                t = s0 / (s0 - s1)
                cut.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
            if s1 <= 0:
                cut.append((x1, y1))
        polygon = cut
    return polygon if len(polygon) >= 3 else None


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

    polygon = _feasible_polygon(inst.constraints, lo, hi)
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

    styles = {"support": ("#222222", 0.8), "random": ("#d62728", 1.2),
              "objective": ("#9467bd", 1.2)}
    support = 2 * inst.n + 1
    lines = [("support" if i < support else "random", q.a, q.b)
             for i, q in enumerate(inst.constraints)]
    # objective direction as a line through the origin along c
    lines.append(("objective", (-inst.c[1], inst.c[0]), 0.0))
    for cls, a, bval in lines:
        seg = _clip_line(a, bval, lo, hi)
        if seg is not None:
            (x1, y1), (x2, y2) = seg
            color, width = styles[cls]
            parts.append(
                f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="{color}" '
                f'stroke-width="{width:g}"/>'
            )

    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
