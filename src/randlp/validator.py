"""Independent instance checking.

``validate_instance`` re-derives what the generator promises: exact bounding
rows and objective, center feasibility, the distance band, objective
improvement, and pairwise dissimilarity.  Strict acceptance conditions
(distance > rho, improvement) are checked strictly with no slack; non-strict
bounds get a relative slack of 1e-9 so serialization round-trips can never
flip them.  All strict comparisons go through the same row kernels the
generator used, the distance and the projection through its
``center_terms``, so a generated instance validates bit-for-bit.

All checks share one stack of the rows the instance does not hold in
closed form, the edited bounding rows and the random rows, in row order:
an unusable row is reported, zeroed and masked, and the pair walk
normalizes the stack in place.  Its pairs come from ``geometry.stack_pairs``,
and every bounding row held in closed form is paired with the stack through
``geometry.bounding_pairs``.

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
    bounding_pairs,
    center_terms,
    hypercube_center,
    likeness,
    objective_value,
    row_dots,
    row_norms,
    row_sumsq,
    stack_pairs,
)
from .model import (
    BoundingBlock,
    LPInstance,
    UnsupportedDimensionError,
    bound_violations,
    build_objective,
    build_support,
    refuse,
    stored_violations,
    support_only_solution,
)

_SLACK = 1e-9


def _within(x, bound):
    """Non-strict x <= bound with relative slack, elementwise; a bound whose
    slack overflows is infinite, and a nan on either side fails."""
    with np.errstate(over="ignore", invalid="ignore"):
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

    The acceptance bounds a file does not store come first: when
    ``bound_violations`` (the conditions of ``validate_params`` on rho,
    l_max and s_min) refuses ``inst.params``, ``ParameterError`` is raised
    with exactly those violations, as the generator does, and no row is
    checked.

    The instance's shape is right by construction: 2n+1 bounding rows kept
    under its own alpha, and rows and objective of n coefficients.  So every
    bounding row it holds in closed form is canonical, and a bounding row
    mismatches exactly when it is an edit that differs from the canonical
    row.  Each row's own conditions are evaluated once over a
    stack of the rows not in closed form, the edited bounding rows and the
    random rows, with the row kernels a one-row check uses, so every verdict
    and every measured value equals that of checking the rows one at a
    time.  The bounding rows held in closed form need no such check: with
    alpha finite and positive and (n-1)*alpha + alpha/2 finite by then,
    they are finite, nonzero and hold at the center (alpha/2, ...,
    alpha/2).  A diagonal right-hand side that overflows is structural,
    as ``validate_params`` states it, and ends the check.  The violations
    come out in row order too: structural (``stored_violations``, the
    conditions of ``validate_params`` on the alpha and theta that a file
    stores and on the diagonal and the objective at the center they give),
    bounding rows and objective, non-finite rows, rows of finite
    coefficients whose sum of squares overflows, zero rows, then per row its
    center feasibility, distance band and objective improvement, then the
    alike pairs.  <a,h>, the distance and the projection step of every
    stacked row come from one ``center_terms`` call.
    """
    p = inst.params
    refuse(bound_violations(p))
    n = inst.n
    block = inst.bounding

    out = [Violation(-1, *v) for v in stored_violations(p)]
    if out:
        return ValidationReport(False, tuple(out))

    want = BoundingBlock.canonical(n, p.alpha)
    for i in sorted(block.edits):
        if block.edits[i] != want.row(i):
            out.append(Violation(i, "bounding row mismatch", "row differs", "exact"))
    expected_c = build_objective(n, p.theta)
    if not np.array_equal(inst.c, expected_c):
        out.append(Violation(-1, "objective row mismatch", "row differs", "exact"))

    # The stack X holds every row not in closed form: the edited bounding
    # rows, then the random rows from X[r] on; X[k] is constraint xi[k].
    head = sorted(block.edits)
    r = len(head)
    xi = np.concatenate([head, np.arange(2 * n + 1, inst.m)]).astype(np.intp)
    X = np.empty((len(xi), n))
    B = np.empty(len(xi))
    for k, i in enumerate(head):
        X[k], B[k] = block.edits[i].a, block.edits[i].b
    X[r:] = inst.random_a
    B[r:] = inst.random_b
    h = hypercube_center(n, p.alpha)
    f_h = objective_value(inst.c, h)
    ah, sumsq, dist, t = center_terms(X, B, h)
    finite = np.isfinite(X).all(axis=1) & np.isfinite(B)
    for i in xi[~finite].tolist():
        out.append(Violation(i, "finite coefficients", "nan or inf", "finite"))
    # finite coefficients whose sum of squares overflows
    for i in xi[finite & (sumsq == np.inf)].tolist():
        out.append(Violation(i, "finite coefficient norm", math.inf, "finite"))
    for i in xi[finite & (sumsq == 0.0)].tolist():
        out.append(Violation(i, "nonzero coefficient norm", 0.0, "> 0"))
    usable = finite & (sumsq > 0.0) & (sumsq < np.inf)
    # an unusable row and its step are zeroed, so none of its nan or inf
    # reaches the projection below, and its results are masked
    X[~usable] = t[~usable] = 0.0

    feasible = _within(ah, B)
    above_rho = dist > p.rho
    below_theta = _within(dist, p.theta)
    # the projection of h onto each row's hyperplane; a usable row whose
    # <a,h> overflows has an infinite step, and its value is nan
    with np.errstate(over="ignore", invalid="ignore"):
        f_proj = row_dots(h - t[:, None] * X, inst.c)
    improves = f_proj > f_h

    # distance band and objective improvement apply to the random rows,
    # X[r:], only
    flagged = ~feasible
    flagged[r:] |= ~(above_rho & below_theta & improves)[r:]
    for k in np.flatnonzero(flagged & usable).tolist():
        i = int(xi[k])
        if not feasible[k]:
            out.append(Violation(i, "center feasibility a.h <= b", float(ah[k]), float(B[k])))
        if k < r:
            continue
        if not above_rho[k]:
            out.append(Violation(i, "distance > rho", float(dist[k]), p.rho))
        if not below_theta[k]:
            out.append(Violation(i, "distance <= theta", float(dist[k]), p.theta))
        if not improves[k]:
            out.append(
                Violation(i, "objective improvement at projection", float(f_proj[k]), f_h)
            )

    # unit rows and normalized offsets, in place: an unusable row stays zero
    norms = np.sqrt(sumsq)
    norms[~usable] = 1.0
    X /= norms[:, None]
    B /= norms
    units = X[usable]
    stack = (units, row_sumsq(units) / 2.0, B[usable])
    out.extend(_pairwise_likeness_violations(inst, xi[usable], stack, p.l_max, p.s_min))
    return ValidationReport(not out, tuple(out))


def _pairwise_likeness_violations(inst, xi, stack, l_max, s_min):
    """All-pairs dissimilarity check of the usable rows, in row-major (i, j) order.

    ``stack`` is (unit rows, halves, offsets) of the usable stacked rows,
    its row k constraint ``xi[k]``.  The shortlist holds every pair within
    the direction and offset bounds, found by where its rows come from:

    * two stacked rows: ``stack_pairs``, the walk ``any_alike`` makes
      within a batch;
    * a stacked row and a bounding row held in closed form:
      ``bounding_pairs`` of the instance's block, the generator's screen.

    Two bounding rows held in closed form are never alike once
    ``bound_violations`` passes: +-e_j and +-e_k are sqrt(2) or more apart
    in direction, and the diagonal at least sqrt(2 - 2/sqrt(2)) ~ 0.765
    from each of them for n >= 2, both above the l_max cap of 0.7; at
    n = 1 the diagonal and x <= alpha are alpha/2 apart in offset, and
    s_min <= alpha/2.

    Each survivor is rechecked with the exact scalar predicate, so the
    verdict never depends on BLAS summation order or on how the pair was
    shortlisted.  The reported gap is the one ``likeness`` measures, read
    off the two rows the recheck builds.  Peak memory is that of one slab of
    ``stack_pairs``, at most 256 x m dot products, not O(m^2).
    """
    pairs = [(xi[earlier], xi[later]) for later, earlier in stack_pairs(stack, l_max, s_min)]
    k, i = bounding_pairs(inst.bounding, stack, l_max, s_min)
    x = xi[k]
    pairs.append((np.minimum(x, i), np.maximum(x, i)))
    ii, jj = (np.concatenate(x) for x in zip(*pairs))
    order = np.lexsort((jj, ii))

    out = []
    for i, j in zip(ii[order].tolist(), jj[order].tolist()):
        qi, qj = inst.row(i), inst.row(j)
        if likeness(qi, qj, l_max, s_min):
            gap = float(row_norms(qi.a / row_norms(qi.a) - qj.a / row_norms(qj.a)))
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
