"""Parameter set, constraint/instance containers, and parameter validation."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ParameterError(ValueError):
    """Raised when a parameter set violates the feasibility conditions."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


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


def _positive_finite(p: GeneratorParams, names) -> list[str]:
    out = []
    for name in names:
        value = getattr(p, name)
        if not value > 0:
            out.append(f"{name} > 0")
        if not math.isfinite(value):
            out.append(f"{name} finite")
    return out


def diagonal_rhs(n: int, alpha: float) -> float:
    """Right-hand side of the diagonal bounding row: (n-1)*alpha + alpha/2."""
    return (n - 1) * alpha + alpha / 2


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
    out += _positive_finite(p, ("rho", "l_max", "s_min"))
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
    """
    out: list[str] = []
    if p.n < 1:
        out.append("n >= 1")
    if p.d < 0:
        out.append("d >= 0")
    out += _positive_finite(p, ("alpha", "theta", "a_max", "b_max"))
    # Every coefficient at most a_max squares to 0 here: each draw is a
    # zero-norm row, skipped without counting toward the stall budget.
    if 0 < p.a_max < math.inf and p.a_max * p.a_max == 0:
        out.append("a_max*a_max > 0")
    if not p.theta <= p.alpha / 2:
        out.append("theta <= alpha/2")
    # The diagonal bounding row's right-hand side; with theta <= alpha/2 it
    # also bounds every objective coefficient theta*k, k <= n.
    try:
        diagonal = diagonal_rhs(p.n, p.alpha)
    except OverflowError:  # n itself is beyond the float range
        diagonal = math.inf
    if p.n >= 1 and math.isfinite(p.alpha) and not math.isfinite(diagonal):
        out.append("(n-1)*alpha + alpha/2 finite")
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


def support_layout(n: int, alpha: float):
    """The rows of ``build_support(n, alpha)`` in closed form, in order.

    Yields (j, coef, rhs): coefficient coef at position j and zeros
    elsewhere, or coef at every position when j is None, with right-hand
    side rhs.  Code that only needs the structure of the bounding system
    (the writer, the reader, the validator) walks this instead of building
    the rows.
    """
    return map(BoundingBlock.canonical(n, alpha).spec, range(2 * n + 1))


def support_row(n: int, j, coef: float, rhs: float) -> Inequality:
    """The row (j, coef, rhs) of ``support_layout`` as an inequality."""
    if j is None:
        return Inequality(np.full(n, coef), rhs)
    a = np.zeros(n)
    a[j] = coef
    return Inequality(a, rhs)


def _bits(v: float) -> np.uint64:
    return np.float64(v).view(np.uint64)


def _is_layout_row(q: Inequality, n: int, j, coef: float, rhs: float) -> bool:
    """q is bitwise the row (j, coef, rhs) of ``support_layout``."""
    if q.a.shape != (n,) or _bits(q.b) != _bits(rhs):
        return False
    bits = q.a.view(np.uint64)
    if j is None:
        return bool(np.all(bits == _bits(coef)))
    return bool(bits[j] == _bits(coef)) and np.count_nonzero(bits) == 1


@dataclass(frozen=True, eq=False)
class BoundingBlock:
    """The bounding rows of an instance without storing the canonical ones.

    Row i, of ``count``, is row i of ``support_layout(n, alpha)``, unless
    ``edits`` maps i to another row.  A generated or read instance has
    ``count = 2n+1`` and no edit.  An instance built from rows keeps, as
    given, each row that is not bitwise canonical (a tampered row, a -0.0)
    and each row past 2n+1.
    """

    n: int
    alpha: float
    count: int
    edits: dict  # row index -> Inequality

    @classmethod
    def canonical(cls, n: int, alpha: float) -> "BoundingBlock":
        """The 2n+1 rows of ``support_layout(n, alpha)``."""
        return cls(n, alpha, 2 * n + 1, {})

    @classmethod
    def from_rows(cls, n: int, alpha: float, rows) -> "BoundingBlock":
        """The block of ``rows``; a row that is None is canonical."""
        block = cls.canonical(n, float(alpha))
        edits = {
            i: q
            for i, q in enumerate(rows)
            if q is not None and (i > 2 * n or not _is_layout_row(q, n, *block.spec(i)))
        }
        return cls(n, block.alpha, len(rows), edits)

    def spec(self, i: int):
        """Row i < 2n+1 of the bounding system as (j, coef, rhs), the form
        ``support_layout`` yields: x_j <= alpha for i < n, -x_j <= 0 for
        i < 2n, then the diagonal sum_j x_j <= (n-1)*alpha + alpha/2."""
        n = self.n
        if i < n:
            return i, 1.0, self.alpha
        if i < 2 * n:
            return i - n, -1.0, 0.0
        return None, 1.0, diagonal_rhs(n, self.alpha)

    def row(self, i: int) -> Inequality:
        q = self.edits.get(i)
        return support_row(self.n, *self.spec(i)) if q is None else q

    def rows(self) -> tuple[Inequality, ...]:
        return tuple(self.row(i) for i in range(self.count))

    def __eq__(self, other):
        if not isinstance(other, BoundingBlock):
            return NotImplemented
        if (self.n, self.count) != (other.n, other.count):
            return False
        # equal alphas give equal canonical rows, -0.0 and 0.0 included
        if not self.edits and not other.edits and self.alpha == other.alpha:
            return True
        # row by row, so that a nan row is unequal even to itself
        return all(q == r for q, r in zip(self.rows(), other.rows()))


def _frozen_rows(a, n: int) -> np.ndarray:
    a = np.require(a, dtype=np.float64, requirements="C")
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"expected random rows of {n} coefficients, got shape {a.shape}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False, init=False)
class LPInstance:
    """A generated problem: maximize c.x subject to all constraints.

    ``support`` holds the 2n+1 bounding inequalities in canonical order,
    ``random`` the accepted extra inequalities in acceptance order.  Equality
    compares the mathematical content (n, constraints, objective) row by
    row, -0.0 equal to 0.0 and a nan unequal to itself; ``params`` is
    carried along as a record of the run but not compared, since the
    on-disk format does not store every knob.

    The rows are stored as arrays: the random rows as one frozen (d, n)
    array ``random_a`` with right-hand sides ``random_b``, the bounding rows
    as a ``BoundingBlock``, which holds no canonical row.  ``support``,
    ``random`` and ``constraints`` are tuples built from these on first use
    and cached; an instance built from tuples keeps those.
    ``from_arrays`` builds an instance without any ``Inequality``.
    """

    n: int
    support: tuple[Inequality, ...]
    random: tuple[Inequality, ...]
    c: np.ndarray
    params: GeneratorParams

    def __init__(self, n, support, random, c, params):
        support = tuple(support)
        random = tuple(random)
        a = np.stack([q.a for q in random]) if random else np.empty((0, n))
        b = np.array([q.b for q in random], dtype=np.float64)
        self._store(n, BoundingBlock.from_rows(n, params.alpha, support), a, b, c, params)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "random", random)

    @classmethod
    def from_arrays(cls, n: int, bounding: BoundingBlock, random_a, random_b, c,
                    params: GeneratorParams) -> "LPInstance":
        """An instance of the bounding rows ``bounding`` and the random rows
        ``random_a`` with right-hand sides ``random_b``.  A float64 array
        given is frozen in place, not copied."""
        inst = object.__new__(cls)
        inst._store(n, bounding, random_a, random_b, c, params)
        return inst

    def _store(self, n, bounding, a, b, c, params) -> None:
        a = _frozen_rows(a, n)
        b = np.require(b, dtype=np.float64, requirements="C")
        if b.shape != (a.shape[0],):
            raise ValueError("expected one right-hand side per random row")
        b.flags.writeable = False
        for name, value in (("n", n), ("bounding", bounding), ("random_a", a),
                            ("random_b", b), ("c", _frozen_vector(c)), ("params", params)):
            object.__setattr__(self, name, value)

    def with_params(self, params: GeneratorParams) -> "LPInstance":
        """The same rows with other ``params``; unlike ``dataclasses.replace``
        it builds no row."""
        return LPInstance.from_arrays(
            self.n, self.bounding, self.random_a, self.random_b, self.c, params
        )

    def __getattr__(self, name):
        # support, random and constraints are built on first use, then cached
        if name == "support":
            value = self.bounding.rows()
        elif name == "random":
            value = tuple(map(Inequality, self.random_a, self.random_b.tolist()))
        elif name == "constraints":
            value = self.support + self.random
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    @property
    def m(self) -> int:
        return self.bounding.count + self.d

    @property
    def d(self) -> int:
        return len(self.random_b)

    def row(self, i: int) -> Inequality:
        """Constraint i, built alone from the bounding block or the random
        rows: bitwise the element i of ``constraints``."""
        k = self.bounding.count
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
