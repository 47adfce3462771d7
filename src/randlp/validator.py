"""Independent instance checking.

``validate_instance`` re-derives what the generator promises: exact bounding
rows and objective, center feasibility, the distance band, objective
improvement, and pairwise dissimilarity.  Strict acceptance conditions
(distance > rho, improvement) are checked strictly with no slack; non-strict
bounds get a relative slack of 1e-9 so serialization round-trips can never
flip them.  All strict comparisons go through the same row kernels the
generator used, so a generated instance validates bit-for-bit.

All checks share one stack of the rows, each at its own index: an unusable
row is reported, zeroed and masked, and the pair walk normalizes the stack
in place.

``verify_support_solution`` checks the known optimum of the bounding system
by brute-force vertex enumeration, deliberately an independent code path from
the generator (plain Gaussian elimination, no shared solver).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import (
    hypercube_center,
    likeness,
    near_pairs,
    objective_value,
    row_dots,
    row_norms,
    row_sumsq,
)
from .model import LPInstance, UnsupportedDimensionError
from .support import build_objective, build_support, support_only_solution

_SLACK = 1e-9


def _within(x, bound):
    """Non-strict x <= bound with relative slack, elementwise."""
    return x <= bound + _SLACK * np.maximum(1.0, np.abs(bound))


@dataclass(frozen=True)
class Violation:
    constraint: int        # index into the full system; -1 for structural issues
    condition: str
    measured: object
    bound: object

    def __str__(self):
        where = "structure" if self.constraint < 0 else f"constraint {self.constraint}"
        return f"{where}: {self.condition} (measured {self.measured}, bound {self.bound})"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


def validate_instance(inst: LPInstance) -> ValidationReport:
    """Check every promised property of inst; collect all violations.

    Each row's own conditions are evaluated once over a stack of all rows,
    with the row kernels a one-row check uses, so every verdict and every
    measured value equals that of checking the rows one at a time.  The
    violations come out in that order too: structural (with the conditions
    of ``validate_params`` on the alpha and theta that a file stores),
    bounding rows and objective, non-finite rows, zero rows, then per row its
    center feasibility, distance band and objective improvement, then the
    alike pairs.
    """
    out: list[Violation] = []
    n = inst.n
    p = inst.params

    if n < 1:
        return ValidationReport(False, (Violation(-1, "n >= 1", n, 1),))
    if len(inst.support) != 2 * n + 1:
        out.append(Violation(-1, "support row count", len(inst.support), 2 * n + 1))
    if inst.c.shape[0] != n:
        out.append(Violation(-1, "objective length", inst.c.shape[0], n))
    rows = inst.constraints
    bad_shape = [i for i, q in enumerate(rows) if q.a.shape[0] != n]
    for i in bad_shape:
        out.append(Violation(i, "coefficient row length", rows[i].a.shape[0], n))
    # the conditions of validate_params on the parameters a file stores
    for name in ("alpha", "theta"):
        if not getattr(p, name) > 0:
            out.append(Violation(-1, f"{name} > 0", getattr(p, name), 0.0))
    if not p.theta <= p.alpha / 2:
        out.append(Violation(-1, "theta <= alpha/2", p.theta, p.alpha / 2))
    if out:
        return ValidationReport(False, tuple(out))

    for i, (got, want) in enumerate(zip(inst.support, build_support(n, p.alpha))):
        if got != want:
            out.append(Violation(i, "bounding row mismatch", "row differs", "exact"))
    expected_c = build_objective(n, p.theta)
    if not np.array_equal(inst.c, expected_c):
        out.append(Violation(-1, "objective row mismatch", "row differs", "exact"))

    A = np.stack([q.a for q in rows])
    B = np.array([q.b for q in rows])
    sumsq = row_sumsq(A)
    norms = np.sqrt(sumsq)  # row_norms(A)
    # A nan or inf coefficient makes the norm non-finite, and so can a sum of
    # squares that overflows: recheck those rows coefficient by coefficient.
    finite = np.isfinite(norms) & np.isfinite(B)
    for i in np.flatnonzero(~finite):
        finite[i] = bool(np.isfinite(A[i]).all()) and math.isfinite(B[i])
    for i in np.nonzero(~finite)[0]:
        out.append(Violation(int(i), "finite coefficients", "nan or inf", "finite"))
    for i in np.nonzero(finite & (norms == 0.0))[0]:
        out.append(Violation(int(i), "nonzero coefficient norm", 0.0, "> 0"))
    usable = finite & (norms > 0.0)
    # every row keeps its index; an unusable row is zeroed, so none of its
    # nan or inf reaches the arithmetic below, and its results are masked
    A[~usable] = 0.0
    B[~usable] = 0.0

    h = hypercube_center(n, p.alpha)
    f_h = objective_value(inst.c, h)
    # rows from `first` on are random rows: distance band and objective
    # improvement apply to those only
    first = len(inst.support)
    ah = row_dots(A, h)
    # a one-row check did this arithmetic on Python floats, which overflow,
    # and divide inf by inf, without a warning; a zeroed row divides 0 by 0
    with np.errstate(over="ignore", invalid="ignore"):
        feasible = _within(ah, B)
        excess = ah[first:] - B[first:]
        dist = np.abs(excess) / norms[first:]
        above_rho = dist > p.rho
        below_theta = _within(dist, p.theta)
        t = excess / sumsq[first:]
    # the projection of h onto each random row's hyperplane
    f_proj = row_dots(h - t[:, None] * A[first:], inst.c)
    improves = f_proj > f_h

    flagged = ~feasible
    flagged[first:] |= ~(above_rho & below_theta & improves)
    for i in np.flatnonzero(flagged & usable).tolist():
        if not feasible[i]:
            out.append(Violation(i, "center feasibility a.h <= b", float(ah[i]), float(B[i])))
        if i < first:
            continue
        r = i - first
        if not above_rho[r]:
            out.append(Violation(i, "distance > rho", float(dist[r]), p.rho))
        if not below_theta[r]:
            out.append(Violation(i, "distance <= theta", float(dist[r]), p.theta))
        if not improves[r]:
            out.append(
                Violation(i, "objective improvement at projection", float(f_proj[r]), f_h)
            )

    # unit rows and normalized offsets, in place: an unusable row stays zero
    norms[~usable] = 1.0
    A /= norms[:, None]
    B /= norms
    out.extend(_pairwise_likeness_violations(rows, A, B, usable, p.l_max, p.s_min))
    return ValidationReport(not out, tuple(out))


# Rows of the upper-triangle Gram slab computed at a time: the slab holds
# _PAIR_BLOCK x m dot products, so memory grows with m, not m^2.
_PAIR_BLOCK = 256


def _pairwise_likeness_violations(rows, units, beta, usable, l_max, s_min):
    """All-pairs dissimilarity check of the usable rows, in row-major (i, j) order.

    ``units`` and ``beta`` hold the unit normal and the normalized offset of
    every row of ``rows`` at its own index, zero where ``usable`` is False.
    They are walked in blocks of ``_PAIR_BLOCK``: each block's rows are the
    queries of one ``near_pairs`` call against the rows after the block's
    first, whose shortlist holds every pair within the direction and offset
    bounds; a pair not above the diagonal or with an unusable row is
    dropped, and each survivor is rechecked with the exact scalar predicate,
    so the verdict never depends on BLAS summation order.  The reported gap
    is read off the unit rows.  Peak memory is O(_PAIR_BLOCK * m), not O(m^2).
    """
    m = len(units)
    triple = (units, row_sumsq(units) / 2.0, beta)  # as unit_rows gives them
    out = []
    for lo in range(0, m - 1, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, m - 1)
        rest = [x[lo + 1 :] for x in triple]
        ii, jj = near_pairs(rest, [x[lo:hi] for x in triple], l_max, s_min)
        ii += lo
        jj += lo + 1
        keep = (jj > ii) & usable[ii] & usable[jj]
        for i, j in zip(ii[keep].tolist(), jj[keep].tolist()):
            if likeness(rows[i], rows[j], l_max, s_min):
                gap = float(row_norms(units[i] - units[j]))
                out.append(
                    Violation(
                        j,
                        f"alike with constraint {i}",
                        f"direction gap {gap:.6g}",
                        f"< {l_max:g} is too similar",
                    )
                )
    return out


def _solve_square(A: np.ndarray, b: np.ndarray, tol: float = 1e-9):
    """Gaussian elimination with partial pivoting; None when singular."""
    A = np.array(A, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    k = len(b)
    for col in range(k):
        piv = col + int(np.argmax(np.abs(A[col:, col])))
        if abs(A[piv, col]) <= tol:
            return None
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for r in range(col + 1, k):
            f = A[r, col] / A[col, col]
            A[r, col:] -= f * A[col, col:]
            b[r] -= f * b[col]
    x = np.zeros(k)
    for row in range(k - 1, -1, -1):
        x[row] = (b[row] - float(A[row, row + 1 :] @ x[row + 1 :])) / A[row, row]
    return x


def verify_support_solution(n: int, alpha: float, theta: float) -> bool:
    """True iff (alpha, ..., alpha, alpha/2) is the unique maximizer of the
    bounding system, established by enumerating every vertex (n <= 3)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if n > 3:
        raise UnsupportedDimensionError(
            f"vertex enumeration oracle supports n <= 3, got n = {n}"
        )
    support = build_support(n, alpha)
    c = build_objective(n, theta)
    A = np.stack([q.a for q in support])
    b = np.array([q.b for q in support])
    slack = _SLACK * np.maximum(1.0, np.abs(b))

    vertices: list[np.ndarray] = []
    tol = 1e-9 * max(1.0, abs(alpha))
    for sel in combinations(range(2 * n + 1), n):
        x = _solve_square(A[list(sel)], b[list(sel)])
        if x is None:
            continue
        if not np.all(A @ x <= b + slack):
            continue
        if not any(np.all(np.abs(x - v) <= tol) for v in vertices):
            vertices.append(x)

    xbar = support_only_solution(n, alpha)
    if not np.all(A @ xbar <= b + slack):
        return False
    if not any(np.all(np.abs(xbar - v) <= tol) for v in vertices):
        return False
    best = objective_value(c, xbar)
    margin = _SLACK * max(1.0, abs(best))
    for v in vertices:
        if np.all(np.abs(v - xbar) <= tol):
            continue
        if objective_value(c, v) >= best - margin:
            return False
    return True
