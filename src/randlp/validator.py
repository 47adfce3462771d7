"""Independent instance checking.

``validate_instance`` re-derives what the generator promises: exact bounding
rows and objective, center feasibility, the distance band, objective
improvement, and pairwise dissimilarity.  Strict acceptance conditions
(distance > rho, improvement) are checked strictly with no slack; non-strict
bounds get a relative slack of 1e-9 so serialization round-trips can never
flip them.  All strict comparisons go through the same row kernels the
generator used, so a generated instance validates bit-for-bit.

All checks share one stack of the rows the instance does not hold in
closed form, in row order: an unusable row is reported, zeroed and masked,
and the pair walk normalizes the stack in place.

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
    axis_pairs,
    direction_cut,
    hypercube_center,
    likeness,
    near_pairs,
    objective_value,
    row_dots,
    row_norms,
    row_sumsq,
)
from .model import BoundingBlock, LPInstance, UnsupportedDimensionError
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

    The instance's shape is right by construction: 2n+1 bounding rows kept
    under its own alpha, and rows and objective of n coefficients.  So every
    bounding row it holds in closed form is canonical, and a bounding row
    mismatches exactly when it is an edit that differs from the canonical
    row.  Each row's own conditions are evaluated once over a
    stack of the rows not in closed form, with the row kernels a one-row
    check uses, so every verdict and every measured value equals that of
    checking the rows one at a time.  The rows x_j <= alpha and -x_j <= 0
    held in closed form need no such check: alpha being finite and positive
    by then, they have norm 1 and hold at the center (alpha/2, ...,
    alpha/2).  The violations come out in row order too: structural (with
    the conditions of ``validate_params`` on the alpha and theta that a file
    stores), bounding rows and objective, non-finite rows, zero rows, then
    per row its center feasibility, distance band and objective
    improvement, then the alike pairs.
    """
    out: list[Violation] = []
    n = inst.n
    p = inst.params
    block = inst.bounding

    # the conditions of validate_params on the parameters a file stores
    for name in ("alpha", "theta"):
        value = getattr(p, name)
        if not value > 0:
            out.append(Violation(-1, f"{name} > 0", value, 0.0))
        if not math.isfinite(value):
            out.append(Violation(-1, f"{name} finite", value, "finite"))
    if not p.theta <= p.alpha / 2:
        out.append(Violation(-1, "theta <= alpha/2", p.theta, p.alpha / 2))
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
    # rows, the diagonal, then the random rows from X[r] on; X[k] is
    # constraint xi[k].
    first = 2 * n + 1
    head = sorted(block.edits.keys() | {2 * n})
    r = len(head)
    xi = np.concatenate([head, np.arange(first, inst.m)]).astype(np.intp)
    X = np.empty((len(xi), n))
    B = np.empty(len(xi))
    for k, i in enumerate(head):
        q = block.edits.get(i)
        _, coef, rhs = block.spec(i)  # the diagonal: coef at every position
        X[k], B[k] = (coef, rhs) if q is None else (q.a, q.b)
    X[r:] = inst.random_a
    B[r:] = inst.random_b
    sumsq = row_sumsq(X)
    norms = np.sqrt(sumsq)  # row_norms of each row
    # A nan or inf coefficient makes the norm non-finite, and so can a sum of
    # squares that overflows: recheck those rows coefficient by coefficient.
    finite = np.isfinite(norms) & np.isfinite(B)
    for k in np.flatnonzero(~finite):
        finite[k] = math.isfinite(B[k]) and bool(np.isfinite(X[k]).all())
    for i in xi[~finite].tolist():
        out.append(Violation(i, "finite coefficients", "nan or inf", "finite"))
    for i in xi[finite & (norms == 0.0)].tolist():
        out.append(Violation(i, "nonzero coefficient norm", 0.0, "> 0"))
    usable = finite & (norms > 0.0)
    # an unusable row is zeroed, so none of its nan or inf reaches the
    # arithmetic below, and its results are masked
    X[~usable] = 0.0
    B[~usable] = 0.0

    h = hypercube_center(n, p.alpha)
    f_h = objective_value(inst.c, h)
    ah = row_dots(X, h)
    # distance band and objective improvement apply to the random rows,
    # X[r:], only
    # a one-row check did this arithmetic on Python floats, which overflow,
    # and divide inf by inf, without a warning; a zeroed row divides 0 by 0
    with np.errstate(over="ignore", invalid="ignore"):
        feasible = _within(ah, B)
        excess = ah[r:] - B[r:]
        dist = np.abs(excess) / norms[r:]
        above_rho = dist > p.rho
        below_theta = _within(dist, p.theta)
        t = excess / sumsq[r:]
    # the projection of h onto each random row's hyperplane
    f_proj = row_dots(h - t[:, None] * X[r:], inst.c)
    improves = f_proj > f_h

    flagged = ~feasible
    flagged[r:] |= ~(above_rho & below_theta & improves)
    for k in np.flatnonzero(flagged & usable).tolist():
        i = int(xi[k])
        if not feasible[k]:
            out.append(Violation(i, "center feasibility a.h <= b", float(ah[k]), float(B[k])))
        if k < r:
            continue
        k -= r
        if not above_rho[k]:
            out.append(Violation(i, "distance > rho", float(dist[k]), p.rho))
        if not below_theta[k]:
            out.append(Violation(i, "distance <= theta", float(dist[k]), p.theta))
        if not improves[k]:
            out.append(
                Violation(i, "objective improvement at projection", float(f_proj[k]), f_h)
            )

    # unit rows and normalized offsets, in place: an unusable row stays zero
    norms[~usable] = 1.0
    X /= norms[:, None]
    B /= norms
    units = X[usable]
    stack = (units, row_sumsq(units) / 2.0, B[usable])
    out.extend(_pairwise_likeness_violations(
        inst, xi[usable], stack, _axis_families(block), p.l_max, p.s_min
    ))
    return ValidationReport(not out, tuple(out))


def _axis_families(block: BoundingBlock):
    """The rows the block holds in closed form other than the diagonal:
    (row indices, coefficient, right-hand side) of x_j <= alpha and of
    -x_j <= 0, the coefficient at column j of row j and row n+j."""
    n = block.n
    plain = np.ones(2 * n, dtype=bool)
    plain[[i for i in block.edits if i < 2 * n]] = False
    rows = np.flatnonzero(plain)
    return [(rows[rows < n], 1.0, block.alpha), (rows[rows >= n], -1.0, 0.0)]


# Rows of the upper-triangle Gram slab computed at a time: the slab holds
# _PAIR_BLOCK x m dot products, so memory grows with m, not m^2.
_PAIR_BLOCK = 256


def _pairwise_likeness_violations(inst, xi, stack, families, l_max, s_min):
    """All-pairs dissimilarity check of the usable rows, in row-major (i, j) order.

    ``stack`` is (unit rows, halves, offsets) of the usable stacked rows,
    its row k constraint ``xi[k]``, and each row of ``families`` is
    coef * e_j with offset rhs.  The shortlist holds every pair within the
    direction and offset bounds, found by where its rows come from:

    * two stacked rows: ``near_pairs``, walked in blocks of ``_PAIR_BLOCK``
      rows against the rows after the block's first;
    * a stacked row and a row of a family: ``axis_pairs``, the closed-form
      shortlist the generator's ``BoundingScreen`` uses;
    * two rows of the families: +-e_j and +-e_k have dot product 0 or -1
      and halves 1/2, so no such pair is near unless
      ``-1/2 > direction_cut(1/2, l_max)``, which needs l_max above about
      sqrt(2); then every such pair within ``s_min`` in offset is kept.

    Each survivor is rechecked with the exact scalar predicate, so the
    verdict never depends on BLAS summation order or on how the pair was
    shortlisted.  The reported gap is the one ``likeness`` measures, read
    off the two rows the recheck builds.  Peak memory
    is O(_PAIR_BLOCK * m), not O(m^2).
    """
    n = inst.n
    pairs = list(_stack_pairs(xi, stack, l_max, s_min))
    for rows, coef, rhs in families:
        row_of = np.full(n, -1)  # the family's row of each column, if in closed form
        row_of[rows % n] = rows
        x, j = axis_pairs(stack, coef, rhs, l_max, s_min)
        hit = row_of[j] >= 0
        x, f = xi[x[hit]], row_of[j[hit]]
        pairs.append((np.minimum(x, f), np.maximum(x, f)))
    if -0.5 > direction_cut(0.5, l_max):
        # in row order: the rows of +e_j come first
        fam = np.concatenate([rows for rows, _, _ in families])
        offset = np.concatenate([np.full(len(rows), rhs) for rows, _, rhs in families])
        i, j = np.triu_indices(len(fam), 1)
        near = np.abs(offset[j] - offset[i]) < s_min
        pairs.append((fam[i[near]], fam[j[near]]))
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


def _stack_pairs(idx, stack, l_max, s_min):
    """Shortlisted (earlier, later) row index pairs among the rows of
    ``stack``, whose row k is row ``idx[k]``."""
    for lo in range(0, len(idx) - 1, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, len(idx) - 1)
        ii, jj = near_pairs([x[lo + 1 :] for x in stack], [x[lo:hi] for x in stack],
                            l_max, s_min)
        ii += lo
        jj += lo + 1
        keep = jj > ii
        yield idx[ii[keep]], idx[jj[keep]]


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
