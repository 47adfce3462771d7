"""Geometric primitives shared by the generator and the validator.

Every dot product or norm whose value feeds an accept/reject comparison goes
through ``row_dots`` / ``row_sumsq`` below.  Both work on a single vector or
on a stack of rows, and numpy's pairwise reduction makes the row-batched
result bit-identical to the one-row result, so the batched engines and the
scalar public operations can never disagree on a strict comparison.  The
distance of h to a row's hyperplane and the projection of h onto it come
from ``center_terms`` alone, for the engines, the validator and the scalar
operations alike.

Likeness is shortlisted by where the rows come from: ``near_pairs`` for two
stacks, ``stack_pairs`` for the pairs within one stack, walked in slabs, and
``bounding_pairs`` for a stack against the rows a ``BoundingBlock`` holds in
closed form, whose layout it reads from ``BoundingBlock.spec``.  Each pair a
shortlist keeps is rechecked exactly.
"""
from __future__ import annotations

import numpy as np

from .model import BoundingBlock, Inequality


def row_dots(rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<row, y> for one vector or for each row of a 2-D stack."""
    return (rows * y).sum(axis=-1)


def row_sumsq(rows: np.ndarray) -> np.ndarray:
    """Squared euclidean norm per row."""
    return (rows * rows).sum(axis=-1)


def row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(row_sumsq(rows))


def hypercube_center(n: int, alpha: float) -> np.ndarray:
    """Center point h = (alpha/2, ..., alpha/2)."""
    h = np.full(n, alpha / 2.0)
    h.flags.writeable = False
    return h


def objective_value(c: np.ndarray, x: np.ndarray) -> float:
    return float(row_dots(np.asarray(c, dtype=np.float64), np.asarray(x, dtype=np.float64)))


def center_terms(a: np.ndarray, b, h: np.ndarray):
    """<a,h>, ||a||^2, the distance |<a,h> - b| / ||a|| from h to the
    hyperplane a.x = b, and the step t = (<a,h> - b) / ||a||^2, for one row
    or for each row of a 2-D stack with its entry of ``b``; the projection
    of h onto the hyperplane is h - t*a.

    Negation is exact and commutes with every rounding here, so a row and
    its negation (-a, -b) get the same distance and the same h - t*a bit for
    bit.  A zero row, or one whose sums overflow, gives a non-finite value
    and no warning.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ah = row_dots(a, h)
        nsq = row_sumsq(a)
        excess = ah - b
        return ah, nsq, np.abs(excess) / np.sqrt(nsq), excess / nsq


def distance_to_center(h: np.ndarray, q: Inequality) -> float:
    """Distance |<a,h> - b| / ||a|| from h to the hyperplane a.x = b."""
    _, nsq, dist, _ = center_terms(q.a, q.b, h)
    if nsq == 0.0:
        raise ValueError("zero-norm coefficient vector has no hyperplane")
    return float(dist)


def project_center(h: np.ndarray, q: Inequality) -> np.ndarray:
    """Orthogonal projection of h onto the hyperplane a.x = b."""
    _, nsq, _, t = center_terms(q.a, q.b, h)
    if nsq == 0.0:
        raise ValueError("zero-norm coefficient vector has no hyperplane")
    return h - t * q.a


def likeness(q1: Inequality, q2: Inequality, l_max: float, s_min: float) -> bool:
    """True when the two constraints are alike: their unit normals are closer
    than l_max and their normalized offsets are closer than s_min, both strict."""
    n1 = float(row_norms(q1.a))
    n2 = float(row_norms(q2.a))
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("zero-norm coefficient vector cannot be compared")
    gap = float(row_norms(q1.a / n1 - q2.a / n2))
    off = abs(q1.b / n1 - q2.b / n2)
    return gap < l_max and off < s_min


# Absolute slack on the squared direction gap when shortlisting rows by a
# dot product.  The identity gap^2 = |v|^2 + |u|^2 - 2<v, u> differs from
# the rounded row kernel by a few ulps times n, far below this.
_GAP_SQ_MARGIN = 1e-6


def direction_cut(mean_sumsq, l_max: float):
    """Dot-product bound for a shortlist of likely-alike unit rows.

    The one likeness cut rule: for rows v, u with mean squared norm
    ``mean_sumsq = (|v|^2 + |u|^2)/2``, the identity
    ``|v - u|^2 = |v|^2 + |u|^2 - 2<v, u>`` makes a gap ``|v - u| < l_max``
    the same as ``<v, u> > mean_sumsq - l_max^2/2``; the cut lowers that by
    half of ``_GAP_SQ_MARGIN`` so rounding cannot drop a row the exact gap
    would keep.  Squared norms of normalized rows are 1 up to rounding, and
    far from 1 when a norm under- or overflowed, so each pair uses its own
    mean.  Works elementwise on an array of ``mean_sumsq``.
    """
    return mean_sumsq - (l_max * l_max + _GAP_SQ_MARGIN) / 2.0


def unit_rows(a: np.ndarray, b: np.ndarray, verb: str):
    """Unit rows, half their squared norms and normalized offsets of the
    stack ``a`` with right-hand sides ``b``; a zero row raises ``ValueError``
    ("cannot be <verb>")."""
    nrm = row_norms(a)
    if np.any(nrm == 0.0):
        raise ValueError(f"zero-norm coefficient vector cannot be {verb}")
    units = a / nrm[:, None]
    return units, row_sumsq(units) / 2.0, b / nrm


def near_pairs(rows, queries, l_max: float, s_min: float) -> tuple[np.ndarray, np.ndarray]:
    """The shortlist of likely-alike (query, row) pairs, in order of query
    then row.

    ``rows`` and ``queries`` are (unit rows, halves, offsets), as
    ``unit_rows`` returns them.  One product ``queries @ rows.T - halves``
    keeps the pairs above the query's ``direction_cut``, and the offset
    test ``|offset - q_offset| < s_min`` runs on those only.  Every pair
    with a direction gap below ``l_max`` and an offset gap below ``s_min``
    is kept; callers recheck the gap of each pair exactly.
    """
    units, halves, offsets = rows
    q_units, q_halves, q_offsets = queries
    dots = q_units @ units.T
    dots -= halves
    near = np.flatnonzero(dots > direction_cut(q_halves, l_max)[:, None])
    # flatnonzero and divmod: np.nonzero of a 2-D mask is many times slower
    qi, ri = np.divmod(near, dots.shape[1])
    keep = np.abs(offsets[ri] - q_offsets[qi]) < s_min
    return qi[keep], ri[keep]


# Later rows per slab of ``stack_pairs``: a slab's product holds at most
# _PAIR_BLOCK x m dot products, so memory grows with m, not m^2.
_PAIR_BLOCK = 256


def stack_pairs(stack, l_max: float, s_min: float):
    """The shortlist of likely-alike (later, earlier) pairs of rows of
    ``stack``, a (unit rows, halves, offsets) triple as ``unit_rows``
    returns it: one (later, earlier) pair of arrays per slab of at most
    ``_PAIR_BLOCK`` later rows, in order of later row then earlier row.

    A slab's rows are the queries of one ``near_pairs`` call against the
    rows before its last, so every pair ``near_pairs`` would keep is kept;
    callers recheck the gap of each pair exactly.
    """
    m = len(stack[0])
    for lo in range(1, m, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, m)
        later, earlier = near_pairs([x[: hi - 1] for x in stack], [x[lo:hi] for x in stack],
                                    l_max, s_min)
        later += lo
        keep = earlier < later
        yield later[keep], earlier[keep]


class SimilarityIndex:
    """Normalized constraint rows supporting batched likeness queries.

    Stores one unit normal, half its squared norm and one normalized offset
    per constraint, as ``unit_rows`` gives them, in arrays that grow as rows
    are appended.  A query shortlists the stored rows with ``near_pairs``,
    then rechecks only those rows with ``row_norms(v - u) < l_max``, the
    kernel and unit rows a dense comparison of every row would use, so its
    verdict is the dense one bit for bit and pairwise ``likeness`` calls
    decide the same way.

    ``any_alike`` and ``append`` take one row or a stack of K rows.  A stack
    is judged as if its rows were queried one at a time in order, each
    appended when it is not alike: one ``near_pairs`` call against the
    stored rows and ``stack_pairs`` for the (later, earlier) pairs within
    the stack, both with the same recheck, then a walk of the alike pairs
    in order of the later row.
    """

    def __init__(self, n: int, l_max: float, s_min: float):
        self._n = n
        self._l_max = l_max
        self._s_min = s_min
        self._units = np.empty((0, n), dtype=np.float64)
        self._halves = np.empty(0, dtype=np.float64)
        self._offsets = np.empty(0, dtype=np.float64)
        self._count = 0

    @classmethod
    def from_inequalities(cls, ineqs, n: int, l_max: float, s_min: float) -> "SimilarityIndex":
        ineqs = list(ineqs)
        idx = cls(n, l_max, s_min)
        if ineqs:
            idx.append(np.stack([q.a for q in ineqs]), np.array([q.b for q in ineqs]))
        return idx

    def __len__(self) -> int:
        return self._count

    def append(self, a: np.ndarray, b) -> None:
        """Store one row, or each row of a stack with its entry of ``b``."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim == 1:
            a, b = a[None, :], [b]
        units, halves, offsets = unit_rows(a, np.asarray(b, dtype=np.float64), "indexed")
        start = self._count
        stop = start + len(units)
        cap = self._units.shape[0]
        if stop > cap:
            grow = max(stop - cap, 8, cap)
            self._units = np.concatenate([self._units, np.empty((grow, self._n))])
            self._halves = np.concatenate([self._halves, np.empty(grow)])
            self._offsets = np.concatenate([self._offsets, np.empty(grow)])
        self._units[start:stop] = units
        self._halves[start:stop] = halves
        self._offsets[start:stop] = offsets
        self._count = stop

    def any_alike(self, a: np.ndarray, b):
        """For one row, whether it is alike to a stored row, as a ``bool``.

        For a stack of rows with right-hand sides ``b``, a bool array: per
        row, whether it is alike to a stored row or to an earlier row of the
        stack that is not itself alike, the verdicts of querying the rows in
        order and appending each one that is not alike.
        """
        a = np.asarray(a, dtype=np.float64)
        if a.ndim == 1:
            return bool(self.any_alike(a[None, :], np.array([b], dtype=np.float64))[0])
        l_max, s_min = self._l_max, self._s_min
        stack = unit_rows(a, np.asarray(b, dtype=np.float64), "compared")
        units = stack[0]
        k = self._count
        stored = self._units[:k]
        qi, ri = near_pairs((stored, self._halves[:k], self._offsets[:k]), stack, l_max, s_min)
        alike = np.zeros(len(a), dtype=bool)
        alike[qi[row_norms(stored[ri] - units[qi]) < l_max]] = True
        # pairs (i, j) with j < i come in order of i, so row j is final
        # before row i is looked at
        for qi, ri in stack_pairs(stack, l_max, s_min):
            hit = row_norms(units[ri] - units[qi]) < l_max
            for i, j in zip(qi[hit].tolist(), ri[hit].tolist()):
                if not alike[j]:
                    alike[i] = True
        return alike


def axis_pairs(rows, coef: float, rhs: float, l_max: float, s_min: float):
    """The shortlist of likely-alike (row, j) pairs of the stack ``rows``
    and the rows coef * e_j with right-hand side rhs, for coef = +-1, in
    order of row then j.

    ``rows`` is (unit rows, halves, offsets), as ``unit_rows`` returns
    them.  Each coef * e_j has squared norm exactly 1, offset rhs and dot
    product coef * u_j with a unit row u, so one offset test
    ``|rhs - offset| < s_min`` covers all n of them, and a direction gap
    below ``l_max`` needs ``coef * u_j > direction_cut(half + 1/2, l_max)``.
    Every pair with a direction gap below ``l_max`` and an offset gap below
    ``s_min`` is kept; callers recheck the gap of each pair exactly.
    """
    units, halves, offsets = rows
    near = np.flatnonzero(np.abs(rhs - offsets) < s_min)
    cut = direction_cut(halves[near] + 0.5, l_max)
    ii, jj = np.divmod(np.flatnonzero(coef * units[near] > cut[:, None]), units.shape[1])
    return near[ii], jj


def bounding_pairs(block: BoundingBlock, stack, l_max: float, s_min: float):
    """The alike pairs (k, i) of row k of ``stack`` and row i of the
    ``BoundingBlock`` ``block`` that the block holds in closed form, one
    array of each: the rows x_j <= alpha, then -x_j <= 0, then the diagonal.
    ``stack`` is (unit rows, halves, offsets), as ``unit_rows`` returns them.

    The layout is read from ``block.spec``: each axis family, coef * e_j
    with offset rhs, is shortlisted by ``axis_pairs`` in O(n) per row, and
    the diagonal, coef at every position, has one unit row.  Every
    shortlisted pair is rechecked with ``row_norms(unit - u)`` on the unit
    row a dense ``SimilarityIndex`` of the bounding rows holds, which is
    also the gap ``likeness`` measures, so the pairs are exactly those
    ``likeness`` finds alike, without a stored (2n+1) x n matrix.
    """
    units, _, offsets = stack
    n = block.n
    ks, rows = [], []
    for first in (0, n):
        _, coef, rhs = block.spec(first)
        ii, jj = axis_pairs(stack, coef, rhs, l_max, s_min)
        # unit - u for each shortlisted pair: 0 - u_k off the axis
        diff = 0.0 - units[ii]
        diff[np.arange(ii.size), jj] = coef - units[ii, jj]
        hit = row_norms(diff) < l_max
        ks.append(ii[hit])
        rows.append(jj[hit] + first)
    # the diagonal, coef at every position: each entry of its unit row is
    # coef / nrm
    _, coef, rhs = block.spec(2 * n)
    nrm = float(row_norms(np.full(n, coef)))
    near = np.flatnonzero(np.abs(rhs / nrm - offsets) < s_min)
    near = near[row_norms(coef / nrm - units[near]) < l_max]
    ks.append(near)
    rows.append(np.full(near.size, 2 * n))
    k, i = np.concatenate(ks), np.concatenate(rows)
    if block.edits:
        held = np.isin(i, list(block.edits), invert=True)
        k, i = k[held], i[held]
    return k, i


def bounding_alike(block: BoundingBlock, a, b, l_max: float, s_min: float) -> np.ndarray:
    """For each row of the stack ``a`` with right-hand side ``b``, whether it
    is alike to a row that ``block`` holds in closed form: the verdict of
    ``any_alike`` on a dense ``SimilarityIndex`` of those rows, bit for bit.
    A zero row raises ``ValueError``."""
    hit = np.zeros(len(a), dtype=bool)
    hit[bounding_pairs(block, unit_rows(a, b, "compared"), l_max, s_min)[0]] = True
    return hit
