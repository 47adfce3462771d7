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

    Each row's own conditions are evaluated once over a stack of the rows,
    with the row kernels a one-row check uses, so every verdict and every
    measured value equals that of checking the rows one at a time.  The rows
    x_j <= alpha and -x_j <= 0 that the instance holds in closed form are
    not stacked: each of the two families is checked through its row for
    j = 0, whose values are those of every row of the family because the
    center h has equal coordinates.  The violations
    come out in row order too: structural (with the conditions of
    ``validate_params`` on the alpha and theta that a file stores),
    bounding rows and objective, non-finite rows, zero rows, then per row
    its center feasibility, distance band and objective improvement, then
    the alike pairs.
    """
    out: list[Violation] = []
    n = inst.n
    p = inst.params

    if n < 1:
        return ValidationReport(False, (Violation(-1, "n >= 1", n, 1),))
    block = inst.bounding
    if block.count != 2 * n + 1:
        out.append(Violation(-1, "support row count", block.count, 2 * n + 1))
    if inst.c.shape[0] != n:
        out.append(Violation(-1, "objective length", inst.c.shape[0], n))
    # random rows have n coefficients by construction, and so has a row in
    # closed form
    for i in sorted(block.edits):
        if block.edits[i].a.shape[0] != n:
            out.append(Violation(i, "coefficient row length", block.edits[i].a.shape[0], n))
    # the conditions of validate_params on the parameters a file stores
    for name in ("alpha", "theta"):
        if not getattr(p, name) > 0:
            out.append(Violation(-1, f"{name} > 0", getattr(p, name), 0.0))
    if not p.theta <= p.alpha / 2:
        out.append(Violation(-1, "theta <= alpha/2", p.theta, p.alpha / 2))
    if out:
        return ValidationReport(False, tuple(out))

    for i in _mismatched_bounding_rows(block, p.alpha):
        out.append(Violation(i, "bounding row mismatch", "row differs", "exact"))
    expected_c = build_objective(n, p.theta)
    if not np.array_equal(inst.c, expected_c):
        out.append(Violation(-1, "objective row mismatch", "row differs", "exact"))

    # The stack X holds every row not in closed form: the edited bounding
    # rows, the diagonal, then the random rows; row i is X[pos[i]], and
    # pos[i] is -1 for the rows of the axis families.
    first = 2 * n + 1
    head = sorted(block.edits.keys() | {2 * n})
    xi = np.concatenate([head, np.arange(first, inst.m)]).astype(np.intp)
    pos = np.full(inst.m, -1)
    pos[xi] = np.arange(len(xi))
    X = np.empty((len(xi), n))
    B = np.empty(inst.m)
    for k, i in enumerate(head):
        q = block.edits.get(i)
        _, coef, rhs = block.spec(i)  # the diagonal: coef at every position
        X[k], B[i] = (coef, rhs) if q is None else (q.a, q.b)
    X[len(head):] = inst.random_a
    B[first:] = inst.random_b
    families = _axis_families(block)
    sumsq = np.empty(inst.m)
    sumsq[xi] = row_sumsq(X)
    for rows, coef, rhs in families:
        sumsq[rows] = row_sumsq(_axis_row(n, coef))
        B[rows] = rhs
    norms = np.sqrt(sumsq)  # row_norms of each row
    # A nan or inf coefficient makes the norm non-finite, and so can a sum of
    # squares that overflows: recheck those rows coefficient by coefficient.
    # A row of an axis family has coefficients 0 and +-1.
    finite = np.isfinite(norms) & np.isfinite(B)
    for i in np.flatnonzero(~finite):
        finite[i] = math.isfinite(B[i]) and (pos[i] < 0 or bool(np.isfinite(X[pos[i]]).all()))
    for i in np.nonzero(~finite)[0]:
        out.append(Violation(int(i), "finite coefficients", "nan or inf", "finite"))
    for i in np.nonzero(finite & (norms == 0.0))[0]:
        out.append(Violation(int(i), "nonzero coefficient norm", 0.0, "> 0"))
    usable = finite & (norms > 0.0)
    # an unusable row is zeroed, so none of its nan or inf reaches the
    # arithmetic below, and its results are masked
    X[~usable[xi]] = 0.0
    B[~usable] = 0.0

    h = hypercube_center(n, p.alpha)
    f_h = objective_value(inst.c, h)
    ah = np.empty(inst.m)
    ah[xi] = row_dots(X, h)
    for rows, coef, _ in families:
        ah[rows] = row_dots(_axis_row(n, coef), h)
    # rows from `first` on are random rows, the last d rows of X: distance
    # band and objective improvement apply to those only
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
    f_proj = row_dots(h - t[:, None] * X[len(head):], inst.c)
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
    X /= norms[xi, None]
    B /= norms
    out.extend(
        _pairwise_likeness_violations(inst, X, pos, B, norms, usable, families, p.l_max, p.s_min)
    )
    return ValidationReport(not out, tuple(out))


def _mismatched_bounding_rows(block: BoundingBlock, alpha: float) -> list[int]:
    """The rows of block that differ from those of ``build_support(n, alpha)``."""
    n = block.n
    want = BoundingBlock.canonical(n, alpha)
    bad = {i for i, q in block.edits.items() if q != want.row(i)}
    # a row in closed form differs from the wanted one only if their
    # right-hand sides do: alpha on rows 0..n-1, 0 on rows n..2n-1, and the
    # diagonal's
    for rows in (range(n), [2 * n]):
        if not block.spec(rows[0])[2] == want.spec(rows[0])[2]:
            bad.update(i for i in rows if i not in block.edits)
    return sorted(bad)


def _axis_families(block: BoundingBlock):
    """The rows the block holds in closed form other than the diagonal:
    (row indices, coefficient, right-hand side) of x_j <= alpha and of
    -x_j <= 0, the coefficient at column j of row j and row n+j."""
    n = block.n
    plain = np.ones(2 * n, dtype=bool)
    plain[[i for i in block.edits if i < 2 * n]] = False
    rows = np.flatnonzero(plain)
    return [(rows[rows < n], 1.0, block.alpha), (rows[rows >= n], -1.0, 0.0)]


def _axis_row(n: int, coef: float) -> np.ndarray:
    """The row coef * e_0: its sum of squares, and its dot product with the
    center, whose coordinates are all equal, are those of every coef * e_j."""
    a = np.zeros(n)
    a[0] = coef
    return a


# Rows of the upper-triangle Gram slab computed at a time: the slab holds
# _PAIR_BLOCK x m dot products, so memory grows with m, not m^2.
_PAIR_BLOCK = 256


def _pairwise_likeness_violations(inst, X, pos, beta, norms, usable, families, l_max, s_min):
    """All-pairs dissimilarity check of the usable rows, in row-major (i, j) order.

    ``X`` holds unit rows, row i at ``pos[i]`` where that is not -1, each
    row of ``families`` has the unit row coef/norm * e_j, and ``beta``
    holds the normalized offset of every row.  The shortlist holds every
    pair within the direction and offset bounds, by the values
    ``near_pairs`` computes over a stack of all unit rows, with the earlier
    row of each pair as the query:

    * between rows with two or more nonzeros, ``near_pairs`` itself, walked
      in blocks of ``_PAIR_BLOCK`` rows against the rows after the block's
      first;
    * for a row with one nonzero u_c at column c, or none, the dot product
      with any row v is u_c * v_c, the one product of the sum that is not
      zero: a column of the other rows times u_c, one product between such
      rows of the same column, and zero between those of different columns.

    Each survivor is rechecked with the exact scalar predicate, so the
    verdict never depends on BLAS summation order.  The reported gap is
    read off the unit rows.  Peak memory is O(_PAIR_BLOCK * m), not O(m^2).
    """
    n = inst.n
    xi = np.flatnonzero(pos >= 0)
    ok = usable[xi]
    nnz = np.count_nonzero(X, axis=1)
    dense = np.flatnonzero(ok & (nnz > 1))
    sparse = np.flatnonzero(ok & (nnz <= 1))
    col = np.argmax(X[sparse] != 0.0, axis=1)
    parts = [(xi[sparse], col, X[sparse, col])]
    for rows, coef, _ in families:
        rows = rows[usable[rows]]
        parts.append((rows, rows % n, coef / norms[rows]))
    s_idx, s_col, s_val = (np.concatenate(x) for x in zip(*parts))
    # index, column, unit value, half squared norm, offset: what row_sumsq
    # gives for a row with one nonzero is its square
    sparse_rows = (s_idx, s_col, s_val, s_val * s_val / 2.0, beta[s_idx])
    units = X[dense]
    dense_rows = (xi[dense], units, row_sumsq(units) / 2.0, beta[xi[dense]])

    pairs = [
        *_dense_pairs(dense_rows, l_max, s_min),
        *_mixed_pairs(dense_rows, sparse_rows, l_max, s_min),
        *_same_column_pairs(sparse_rows, l_max, s_min),
        *_zero_product_pairs(sparse_rows, l_max, s_min),
    ]
    if not pairs:
        return []
    ii, jj = (np.concatenate(x) for x in zip(*pairs))
    order = np.lexsort((jj, ii))

    def unit(i):
        if pos[i] >= 0:
            return X[pos[i]]
        u = np.zeros(n)
        u[i % n] = (1.0 if i < n else -1.0) / norms[i]
        return u

    out = []
    for i, j in zip(ii[order].tolist(), jj[order].tolist()):
        if likeness(inst.row(i), inst.row(j), l_max, s_min):
            gap = float(row_norms(unit(i) - unit(j)))
            out.append(
                Violation(
                    j,
                    f"alike with constraint {i}",
                    f"direction gap {gap:.6g}",
                    f"< {l_max:g} is too similar",
                )
            )
    return out


def _dense_pairs(dense, l_max, s_min):
    """Shortlisted (earlier, later) row index pairs among the dense rows."""
    idx, units, halves, beta = dense
    triple = (units, halves, beta)
    for lo in range(0, len(idx) - 1, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, len(idx) - 1)
        ii, jj = near_pairs([x[lo + 1 :] for x in triple], [x[lo:hi] for x in triple],
                            l_max, s_min)
        ii += lo
        jj += lo + 1
        keep = jj > ii
        yield idx[ii[keep]], idx[jj[keep]]


def _mixed_pairs(dense, sparse, l_max, s_min):
    """Shortlisted pairs of a dense and a sparse row, in blocks of dense rows."""
    d_idx, units, d_half, d_beta = dense
    s_idx, s_col, s_val, s_half, s_beta = sparse
    if not (len(d_idx) and len(s_idx)):
        return
    s_cut = direction_cut(s_half, l_max)
    for lo in range(0, len(d_idx), _PAIR_BLOCK):
        block = slice(lo, lo + _PAIR_BLOCK)
        dots = units[block][:, s_col] * s_val
        near = np.where(
            d_idx[block, None] < s_idx,
            dots - s_half > direction_cut(d_half[block], l_max)[:, None],
            dots - d_half[block, None] > s_cut,
        )
        near &= np.abs(s_beta - d_beta[block, None]) < s_min
        r, s = np.divmod(np.flatnonzero(near), len(s_idx))
        a, b = d_idx[lo + r], s_idx[s]
        yield np.minimum(a, b), np.maximum(a, b)


def _same_column_pairs(sparse, l_max, s_min):
    """Shortlisted pairs of sparse rows of the same column."""
    order = np.lexsort((sparse[0], sparse[1]))  # by column, then row index
    idx, col, val, half, beta = (x[order] for x in sparse)
    for k in range(1, len(idx)):
        # rows k apart in the order; none means none further apart either
        q = np.flatnonzero(col[k:] == col[:-k])
        if not q.size:
            break
        r = q + k
        near = val[q] * val[r] - half[r] > direction_cut(half[q], l_max)
        near &= np.abs(beta[r] - beta[q]) < s_min
        yield idx[q[near]], idx[r[near]]


def _zero_product_pairs(sparse, l_max, s_min):
    """Shortlisted pairs of sparse rows of different columns: their dot
    product is zero, so the direction test reads -half > cut, which holds
    only where both halves are small (a row whose norm overflowed)."""
    idx, col, _, half, beta = sparse
    if not len(idx):
        return
    cut = direction_cut(half, l_max)
    queries = np.flatnonzero(cut < (-half).max())
    rows = np.flatnonzero(-half > cut.min())
    for lo in range(0, len(queries), _PAIR_BLOCK):
        q = queries[lo : lo + _PAIR_BLOCK, None]
        near = (idx[q] < idx[rows]) & (col[q] != col[rows]) & (-half[rows] > cut[q])
        near &= np.abs(beta[rows] - beta[q]) < s_min
        qi, ri = np.divmod(np.flatnonzero(near), len(rows))
        yield idx[q[qi, 0]], idx[rows[ri]]


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
