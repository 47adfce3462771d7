"""Parameter set, constraint/instance containers, and parameter validation.

The bounding system lives here too, in closed form: ``BoundingBlock.spec``
gives each of its 2n+1 rows as (j, coef, rhs) and ``BoundingBlock.row``
builds a row from that, so ``build_support`` is the canonical block's rows.
``build_objective`` and ``support_only_solution`` give the objective and the
known optimum of the bounding system alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ParameterError(ValueError):
    """Raised when a parameter set violates the feasibility conditions."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def refuse(violations: list[str]) -> None:
    """Raise ``ParameterError`` with ``violations``, if there are any."""
    if violations:
        raise ParameterError(violations)


class UnsupportedDimensionError(ValueError):
    """Raised by operations that only exist for a restricted dimension range."""


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for one generation run.

    Defaults are the standard demonstration setup for the 2-D case; they keep
    every derived quantity in a comfortable float range and satisfy
    ``validate_params`` for all n >= 1.
    """

    n: int
    d: int = 0
    alpha: float = 200.0
    theta: float = 100.0
    rho: float = 50.0
    l_max: float = 0.35
    s_min: float = 100.0
    a_max: float = 1000.0
    b_max: float = 10000.0
    seed: int = 0
    workers: int = 1
    max_attempts: int = 1_000_000


_L_MAX_CAP = 0.7


def _positive_finite(p: GeneratorParams, names) -> list[tuple[str, float, object]]:
    out = []
    for name in names:
        value = getattr(p, name)
        if not value > 0:
            out.append((f"{name} > 0", value, 0.0))
        if not math.isfinite(value):
            out.append((f"{name} finite", value, "finite"))
    return out


def _as_float(value) -> float:
    """value(), or inf when an int in it is beyond the float range."""
    try:
        return value()
    except OverflowError:
        return math.inf


def diagonal_rhs(n: int, alpha: float) -> float:
    """Right-hand side of the diagonal bounding row: (n-1)*alpha + alpha/2."""
    return (n - 1) * alpha + alpha / 2


def build_support(n: int, alpha: float) -> list[Inequality]:
    """The 2n+1 bounding inequalities, in canonical order.

    Rows 0..n-1:    x_j <= alpha
    Rows n..2n-1:  -x_j <= 0
    Row 2n:         sum_j x_j <= (n-1)*alpha + alpha/2

    The last row cuts the corner of the hypercube nearest to (alpha, ..., alpha)
    so the region stays bounded with a known optimal vertex.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    return list(BoundingBlock.canonical(n, alpha).rows())


def build_objective(n: int, theta: float) -> np.ndarray:
    """Objective coefficients c = theta * (n, n-1, ..., 1)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    c = theta * np.arange(n, 0, -1, dtype=np.float64)
    c.flags.writeable = False
    return c


def support_only_solution(n: int, alpha: float) -> np.ndarray:
    """The unique maximizer over the bounding system alone:
    (alpha, ..., alpha, alpha/2)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    x = np.full(n, float(alpha))
    x[n - 1] = alpha / 2
    x.flags.writeable = False
    return x


def stored_violations(p: GeneratorParams) -> list[tuple[str, float, object]]:
    """The conditions of ``validate_params`` on alpha and theta, which an
    instance file stores, and on the diagonal right-hand side and the
    objective at the center that they give: each one p violates, as
    (condition, measured, bound).

    The objective at the center h is f(h) = theta*alpha/2*n*(n+1)/2.  With
    theta <= alpha/2, the projection p of h onto a row at distance at most
    theta has sum_k |c_k*p_k| <= f(h) + |c|*theta <= 3*f(h), so every
    partial sum of f(p) is at most 3*f(h) in size.  Rounding raises it by a
    relative (1 + 2^-53)^(n+1) - 1 < 1 for n below 2^52, so 6*f(h) is
    required finite: f(h) and f(p) are then finite.
    """
    out = _positive_finite(p, ("alpha", "theta"))
    if not p.theta <= p.alpha / 2:
        out.append(("theta <= alpha/2", p.theta, p.alpha / 2))
    # The diagonal bounding row's right-hand side; with theta <= alpha/2 it
    # also bounds every objective coefficient theta*k, k <= n.
    diagonal = _as_float(lambda: diagonal_rhs(p.n, p.alpha))
    if p.n >= 1 and math.isfinite(p.alpha) and not math.isfinite(diagonal):
        out.append(("(n-1)*alpha + alpha/2 finite", diagonal, "finite"))
    if p.n >= 1 and 0 < p.alpha < math.inf and 0 < p.theta < math.inf:
        center = _as_float(lambda: 6 * p.theta * p.alpha / 2 * p.n * (p.n + 1) / 2)
        if not math.isfinite(center):
            out.append(("6*theta*alpha/2*n*(n+1)/2 finite", center, "finite"))
    return out


def bound_violations(p: GeneratorParams) -> list[str]:
    """The conditions of ``validate_params`` on rho, l_max and s_min, the
    acceptance bounds an instance file does not store; ``rho < theta`` and
    the n = 1 rule read the n, alpha and theta a file does store, and are
    left out while alpha or theta fails its own conditions."""
    out = []
    stored_usable = 0 < p.alpha < math.inf and 0 < p.theta <= p.alpha / 2
    # an infinite rho is reported as "rho finite" alone
    if stored_usable and math.isfinite(p.rho) and not p.rho < p.theta:
        out.append("rho < theta")
    out += [cond for cond, _, _ in _positive_finite(p, ("rho", "l_max", "s_min"))]
    if not p.l_max <= _L_MAX_CAP:
        out.append(f"l_max <= {_L_MAX_CAP}")
    # At n = 1 the bounding rows x <= alpha and x <= alpha/2 share a unit
    # normal, so their offsets must stay s_min apart.
    if stored_usable and p.n == 1 and not p.s_min <= p.alpha / 2:
        out.append("s_min <= alpha/2 when n = 1")
    return out


def validate_params(p: GeneratorParams) -> list[str]:
    """Return the list of violated conditions, empty when p is usable.

    Each entry names the condition itself, e.g. ``"theta <= alpha/2"`` means
    that condition does not hold for p.

    A drawn row's sum of squares is at most n*a_max^2, and |<a,h> - b| at
    most n*a_max*alpha/2 + b_max.  Rounding raises each computed value above
    its bound by a relative (1 + 2^-53)^(n+1) - 1 at most, which is below 1
    for every n below 2^52, so twice each bound is required finite: <a,h>,
    ||a||^2 and <a,h> - b of every draw are then finite.
    """
    out: list[str] = []
    if p.n < 1:
        out.append("n >= 1")
    if p.d < 0:
        out.append("d >= 0")
    out += [cond for cond, _, _ in stored_violations(p) + _positive_finite(p, ("a_max", "b_max"))]
    # Every coefficient at most a_max squares to 0 here: each draw is a
    # zero-norm row, skipped without counting toward the stall budget.
    if 0 < p.a_max < math.inf and p.a_max * p.a_max == 0:
        out.append("a_max*a_max > 0")
    if p.n >= 1 and all(0 < x < math.inf for x in (p.alpha, p.a_max, p.b_max)):
        if not math.isfinite(_as_float(lambda: 2 * p.n * p.a_max * p.a_max)):
            out.append("2*n*a_max*a_max finite")
        if not math.isfinite(_as_float(lambda: 2 * (p.n * p.a_max * p.alpha / 2 + p.b_max))):
            out.append("2*(n*a_max*alpha/2 + b_max) finite")
    out += bound_violations(p)
    if not 0 <= p.seed < 2**64:
        out.append("0 <= seed < 2**64")
    if p.workers < 1:
        out.append("workers >= 1")
    if p.max_attempts < 1:
        out.append("max_attempts >= 1")
    return out


def _frozen_vector(values) -> np.ndarray:
    a = np.array(values, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("expected a 1-D coefficient vector")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Inequality:
    """One constraint a.x <= b with an immutable float64 coefficient row."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", _frozen_vector(self.a))
        object.__setattr__(self, "b", float(self.b))

    def __eq__(self, other):
        if not isinstance(other, Inequality):
            return NotImplemented
        return self.b == other.b and np.array_equal(self.a, other.a)

    def __hash__(self):
        return hash((self.a.tobytes(), self.b))


def _bits(v: float) -> np.uint64:
    return np.float64(v).view(np.uint64)


def _is_layout_row(q: Inequality, j, coef: float, rhs: float) -> bool:
    """q, a row of n coefficients, is bitwise the row (j, coef, rhs) of
    ``BoundingBlock.spec``."""
    if _bits(q.b) != _bits(rhs):
        return False
    bits = q.a.view(np.uint64)
    if j is None:
        return bool(np.all(bits == _bits(coef)))
    return bool(bits[j] == _bits(coef)) and np.count_nonzero(bits) == 1


@dataclass(frozen=True, eq=False)
class BoundingBlock:
    """The 2n+1 bounding rows of an instance without storing the canonical
    ones.

    Row i is the canonical row ``spec(i)``, unless ``edits`` maps i to
    another row of n coefficients.  A generated or read instance has no
    edit.  An instance built from rows keeps, as given, each row that is not
    bitwise canonical (a tampered row, a -0.0).  An edit of an index outside
    0..2n, or of other than n coefficients, raises ``ValueError``.
    """

    n: int
    alpha: float
    edits: dict  # row index -> Inequality

    def __post_init__(self):
        n = self.n
        for i, q in self.edits.items():
            if not 0 <= i <= 2 * n:
                raise ValueError(f"bounding row {i}: expected an index in 0..{2 * n}")
            if q.a.shape != (n,):
                raise ValueError(f"bounding row {i}: expected {n} coefficients, got {q.a.size}")

    @classmethod
    def canonical(cls, n: int, alpha: float) -> "BoundingBlock":
        """The 2n+1 canonical rows, none edited."""
        return cls(n, alpha, {})

    @classmethod
    def from_rows(cls, n: int, alpha: float, rows) -> "BoundingBlock":
        """The block of the 2n+1 ``rows``; a row that is None is canonical.
        Other than 2n+1 rows, or a row of other than n coefficients, raise
        ``ValueError``."""
        if len(rows) != 2 * n + 1:
            raise ValueError(f"expected 2n+1 = {2 * n + 1} bounding rows, got {len(rows)}")
        # every given row is checked as an edit before it is compared
        block = cls(n, float(alpha), {i: q for i, q in enumerate(rows) if q is not None})
        edits = {i: q for i, q in block.edits.items() if not _is_layout_row(q, *block.spec(i))}
        return cls(n, block.alpha, edits)

    def spec(self, i: int):
        """Canonical row i < 2n+1 of the bounding system as (j, coef, rhs):
        coefficient coef at position j and zeros elsewhere, or coef at every
        position when j is None, with right-hand side rhs.  That is
        x_j <= alpha for i < n, -x_j <= 0 for i < 2n, then the diagonal
        sum_j x_j <= (n-1)*alpha + alpha/2."""
        n = self.n
        if i < n:
            return i, 1.0, self.alpha
        if i < 2 * n:
            return i - n, -1.0, 0.0
        return None, 1.0, diagonal_rhs(n, self.alpha)

    def row(self, i: int) -> Inequality:
        """Row i: its edit, or the canonical row ``spec(i)`` built."""
        q = self.edits.get(i)
        if q is not None:
            return q
        j, coef, rhs = self.spec(i)
        if j is None:
            return Inequality(np.full(self.n, coef), rhs)
        a = np.zeros(self.n)
        a[j] = coef
        return Inequality(a, rhs)

    def rows(self) -> tuple[Inequality, ...]:
        return tuple(self.row(i) for i in range(2 * self.n + 1))

    def __eq__(self, other):
        if not isinstance(other, BoundingBlock):
            return NotImplemented
        n = self.n
        if n != other.n:
            return False
        edited = self.edits.keys() | other.edits.keys()
        # A family of canonical rows differs between the blocks only in its
        # right-hand side, so where a row of it is canonical on both sides
        # the rows are equal when those are, as floats: -0.0 equals 0.0 and
        # a nan is unequal to itself.  Only edited rows are built.
        for first, size in ((0, n), (n, n), (2 * n, 1)):
            if sum(first <= i < first + size for i in edited) < size:
                if float(self.spec(first)[2]) != float(other.spec(first)[2]):
                    return False
        return all(self.row(i) == other.row(i) for i in edited)


def _frozen_rows(a, n: int) -> np.ndarray:
    a = np.require(a, dtype=np.float64, requirements="C")
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"expected random rows of {n} coefficients, got shape {a.shape}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class LPInstance:
    """A generated problem: maximize c.x subject to all constraints.

    The fields are the storage: the bounding rows as a ``BoundingBlock``,
    which holds no canonical row, and the random rows, in acceptance order,
    as one frozen (d, n) array ``random_a`` with right-hand sides
    ``random_b``.  A float64 array given is frozen in place, not copied.
    ``support``, ``random`` and ``constraints`` are tuples of
    ``Inequality`` built from these on first use and cached.  Equality
    compares the mathematical content (n, constraints, objective) row by
    row, -0.0 equal to 0.0 and a nan unequal to itself; ``params`` is
    carried along as a record of the run but not compared, since the
    on-disk format does not store every knob.

    The constructor refuses, with ``ValueError``, a shape that neither the
    generator nor the reader makes: n < 1, params of another n, an
    objective of other than n coefficients, random rows of other than n
    coefficients or not one right-hand side each, or a bounding block kept
    for another n or for an alpha not bitwise ``params.alpha``.  So
    ``dataclasses.replace(inst, params=q)`` takes q of the same alpha
    (another rho, l_max or s_min, say) without building a row, and refuses
    another alpha.
    """

    n: int
    bounding: BoundingBlock
    random_a: np.ndarray
    random_b: np.ndarray
    c: np.ndarray
    params: GeneratorParams

    def __post_init__(self):
        n, bounding, params = self.n, self.bounding, self.params
        if n < 1:
            raise ValueError(f"expected n >= 1, got {n}")
        if params.n != n:
            raise ValueError(f"expected params of n = {n}, got {params.n}")
        c = _frozen_vector(self.c)
        if c.shape != (n,):
            raise ValueError(f"expected an objective of {n} coefficients, got {c.size}")
        if bounding.n != n:
            raise ValueError(f"expected a bounding block of n = {n}, got {bounding.n}")
        # bitwise, so that a nan alpha matches itself
        if _bits(bounding.alpha) != _bits(params.alpha):
            raise ValueError(f"bounding block kept for alpha = {bounding.alpha!r}, "
                             f"not params.alpha = {params.alpha!r}")
        a = _frozen_rows(self.random_a, n)
        b = np.require(self.random_b, dtype=np.float64, requirements="C")
        if b.shape != (a.shape[0],):
            raise ValueError("expected one right-hand side per random row")
        b.flags.writeable = False
        for name, value in (("random_a", a), ("random_b", b), ("c", c)):
            object.__setattr__(self, name, value)

    @cached_property
    def support(self) -> tuple[Inequality, ...]:
        return self.bounding.rows()

    @cached_property
    def random(self) -> tuple[Inequality, ...]:
        return tuple(map(Inequality, self.random_a, self.random_b.tolist()))

    @cached_property
    def constraints(self) -> tuple[Inequality, ...]:
        return self.support + self.random

    @property
    def m(self) -> int:
        return 2 * self.n + 1 + self.d

    @property
    def d(self) -> int:
        return len(self.random_b)

    def row(self, i: int) -> Inequality:
        """Constraint i, built alone from the bounding block or the random
        rows: bitwise the element i of ``constraints``."""
        k = 2 * self.n + 1
        if i < k:
            return self.bounding.row(i)
        return Inequality(self.random_a[i - k], self.random_b[i - k])

    def __eq__(self, other):
        if not isinstance(other, LPInstance):
            return NotImplemented
        return (
            self.n == other.n
            and self.bounding == other.bounding
            and np.array_equal(self.random_a, other.random_a)
            and np.array_equal(self.random_b, other.random_b)
            and np.array_equal(self.c, other.c)
        )

    def __repr__(self):
        # the dataclass repr would print every row
        p = self.params
        return (f"LPInstance(n={self.n}, d={self.d}, alpha={p.alpha!r}, seed={p.seed}, "
                f"edits={len(self.bounding.edits)})")


@dataclass(frozen=True)
class GenerationStats:
    """Counters for one completed generation run.

    Every candidate that reached a terminal fate is counted once, so both
    engines satisfy

        candidates_drawn = accepted + rejected_distance
                         + rejected_objective + rejected_similarity

    rejected_similarity covers both sides of the protocol (producer checks
    against the bounding rows, coordinator checks against the accepted random
    rows).  One worker is the sequential engine (stream 0), which reports
    coordinator_rejected_similarity, discarded_surplus and rounds as 0.  For
    L >= 2 workers (streams 1..L), whose producers are stepped in worker
    order on the calling thread, coordinator_rejected_similarity is the
    coordinator-side share of rejected_similarity.  Once the target d is
    reached mid-round, the producers not yet stepped in that round draw
    nothing: each counts as one discarded submission in discarded_surplus,
    and

        rounds * workers = accepted + coordinator_rejected_similarity
                         + discarded_surplus

    ties the round count to the submission total.
    """

    candidates_drawn: int
    rejected_distance: int
    rejected_objective: int
    rejected_similarity: int
    coordinator_rejected_similarity: int = 0
    discarded_surplus: int = 0
    rounds: int = 0
    wall_time_ms: float = 0.0
