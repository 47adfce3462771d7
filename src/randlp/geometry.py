"""Geometric primitives shared by the generator and the validator.

Every dot product or norm whose value feeds an accept/reject comparison goes
through ``row_dots`` / ``row_sumsq`` below.  Both work on a single vector or
on a stack of rows, and numpy's pairwise reduction makes the row-batched
result bit-identical to the one-row result, so the batched engines and the
scalar public operations can never disagree on a strict comparison.
"""
from __future__ import annotations

import numpy as np

from .model import Inequality
from .support import diagonal_rhs


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


def distance_to_center(h: np.ndarray, q: Inequality) -> float:
    """Distance |<a,h> - b| / ||a|| from h to the hyperplane a.x = b."""
    nrm = float(row_norms(q.a))
    if nrm == 0.0:
        raise ValueError("zero-norm coefficient vector has no hyperplane")
    return float(abs(row_dots(q.a, h) - q.b)) / nrm


def project_center(h: np.ndarray, q: Inequality) -> np.ndarray:
    """Orthogonal projection of h onto the hyperplane a.x = b."""
    nsq = float(row_sumsq(q.a))
    if nsq == 0.0:
        raise ValueError("zero-norm coefficient vector has no hyperplane")
    t = (float(row_dots(q.a, h)) - q.b) / nsq
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


class SimilarityIndex:
    """Normalized constraint rows supporting batched likeness queries.

    Stores one unit normal, half its squared norm and one normalized offset
    per constraint.  A query with unit normal u shortlists the rows v with
    ``<v, u> - |v|^2/2 > direction_cut(|u|^2/2, l_max)``, one matrix-vector
    product, and with the offset test, then rechecks only those rows
    with ``row_norms(unit - u) < l_max``, the kernel and unit rows a dense
    comparison of every row would use, so its verdict is the dense one bit
    for bit and pairwise ``likeness`` calls decide the same way.  A query
    builds one vector per stored row, not a rows x n difference matrix.
    """

    def __init__(self, n: int, l_max: float, s_min: float, capacity: int = 8):
        self._n = n
        self._l_max = l_max
        self._s_min = s_min
        cap = max(1, capacity)
        self._units = np.empty((cap, n), dtype=np.float64)
        self._halves = np.empty(cap, dtype=np.float64)
        self._offsets = np.empty(cap, dtype=np.float64)
        self._count = 0

    @classmethod
    def from_inequalities(cls, ineqs, n: int, l_max: float, s_min: float) -> "SimilarityIndex":
        ineqs = list(ineqs)
        idx = cls(n, l_max, s_min, capacity=len(ineqs) + 1)
        if ineqs:
            a = np.stack([q.a for q in ineqs])
            b = np.array([q.b for q in ineqs])
            norms = row_norms(a)
            if np.any(norms == 0.0):
                raise ValueError("zero-norm coefficient vector cannot be indexed")
            k = len(ineqs)
            idx._units[:k] = a / norms[:, None]
            idx._halves[:k] = row_sumsq(idx._units[:k]) / 2.0
            idx._offsets[:k] = b / norms
            idx._count = k
        return idx

    def __len__(self) -> int:
        return self._count

    def append(self, a: np.ndarray, b: float) -> None:
        nrm = float(row_norms(a))
        if nrm == 0.0:
            raise ValueError("zero-norm coefficient vector cannot be indexed")
        if self._count == self._units.shape[0]:
            grow = max(8, self._units.shape[0])
            self._units = np.concatenate([self._units, np.empty((grow, self._n))])
            self._halves = np.concatenate([self._halves, np.empty(grow)])
            self._offsets = np.concatenate([self._offsets, np.empty(grow)])
        unit = a / nrm
        self._units[self._count] = unit
        self._halves[self._count] = row_sumsq(unit) / 2.0
        self._offsets[self._count] = b / nrm
        self._count += 1

    def any_alike(self, a: np.ndarray, b: float) -> bool:
        nrm = float(row_norms(a))
        if nrm == 0.0:
            raise ValueError("zero-norm coefficient vector cannot be compared")
        u = a / nrm
        beta = b / nrm
        k = self._count
        units = self._units[:k]
        cut = direction_cut(row_sumsq(u) / 2.0, self._l_max)
        near = np.flatnonzero(
            (units @ u - self._halves[:k] > cut) & (np.abs(self._offsets[:k] - beta) < self._s_min)
        )
        return bool(near.size) and bool(np.any(row_norms(units[near] - u) < self._l_max))


class BoundingScreen:
    """Likeness against the 2n+1 rows of ``build_support(n, alpha)``, from
    their closed form instead of a stored (2n+1) x n matrix.

    For a unit normal u with normalized offset beta:

    * rows x_j <= alpha have offset alpha and squared gap about 2 - 2*u_j,
    * rows -x_j <= 0 have offset 0 and squared gap about 2 + 2*u_j,
    * the diagonal row has unit normal ones/sqrt(n).

    So one scalar offset test covers each family of n rows, and since
    +-e_j has squared norm exactly 1, a direction gap below l_max needs
    ``+-u_j > direction_cut(|u|^2/2 + 1/2, l_max)``, about 1 - l_max^2/2.
    Every shortlisted row is rechecked with ``row_norms(unit - u)`` on the
    same unit row a dense ``SimilarityIndex`` of the bounding rows holds, so
    the verdict equals that index's ``any_alike`` bit for bit, in O(n) per
    row.  ``alike_rows`` screens a whole stack of rows with one pass of each
    test, so a producer screens all survivors of a block in one call;
    ``any_alike`` is its one-row case.
    """

    def __init__(self, n: int, alpha: float, l_max: float, s_min: float):
        self._alpha = float(alpha)
        self._l_max = l_max
        self._s_min = s_min
        ones = np.ones(n)
        nrm = float(row_norms(ones))
        self._diag_unit = ones / nrm
        self._diag_offset = float(diagonal_rhs(n, alpha)) / nrm

    def _axis_alike(self, units, near, coef: float, cut) -> np.ndarray:
        """Per row of ``units``: a row coef * e_j within l_max of it, among
        the rows where ``near`` holds, shortlisted by coef * u_j > cut."""
        rows = np.flatnonzero(near)
        ii, jj = np.nonzero(coef * units[rows] > cut[rows, None])
        ii = rows[ii]
        # unit - u for each shortlisted pair: 0 - u_k off the axis
        diff = 0.0 - units[ii]
        diff[np.arange(ii.size), jj] = coef - units[ii, jj]
        hit = np.zeros(len(units), dtype=bool)
        hit[ii[row_norms(diff) < self._l_max]] = True
        return hit

    def alike_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """For each row of the stack ``a`` with right-hand side ``b``, whether
        it is alike to some bounding row."""
        nrm = row_norms(a)
        if np.any(nrm == 0.0):
            raise ValueError("zero-norm coefficient vector cannot be compared")
        units = a / nrm[:, None]
        beta = b / nrm
        s_min = self._s_min
        cut = direction_cut(row_sumsq(units) / 2.0 + 0.5, self._l_max)
        hit = self._axis_alike(units, np.abs(self._alpha - beta) < s_min, 1.0, cut)
        hit |= self._axis_alike(units, np.abs(beta) < s_min, -1.0, cut)
        diag = np.flatnonzero(np.abs(self._diag_offset - beta) < s_min)
        hit[diag] |= row_norms(self._diag_unit - units[diag]) < self._l_max
        return hit

    def any_alike(self, a: np.ndarray, b: float) -> bool:
        """``alike_rows`` for one row."""
        return bool(self.alike_rows(np.asarray(a)[None, :], np.array([b], dtype=np.float64))[0])
