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
    the n = 1 rule read the n, alpha and theta the file does store."""
    out = []
    # an infinite rho is reported as "rho finite" alone
    if math.isfinite(p.rho) and not p.rho < p.theta:
        out.append("rho < theta")
    out += _positive_finite(p, ("rho", "l_max", "s_min"))
    if not p.l_max <= _L_MAX_CAP:
        out.append(f"l_max <= {_L_MAX_CAP}")
    # At n = 1 the bounding rows x <= alpha and x <= alpha/2 share a unit
    # normal, so their offsets must stay s_min apart.
    if p.n == 1 and not p.s_min <= p.alpha / 2:
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


@dataclass(frozen=True, eq=False)
class LPInstance:
    """A generated problem: maximize c.x subject to all constraints.

    ``support`` holds the 2n+1 bounding inequalities in canonical order,
    ``random`` the accepted extra inequalities in acceptance order.  Equality
    compares the mathematical content (n, constraints, objective); ``params``
    is carried along as a record of the run but not compared, since the
    on-disk format does not store every knob.
    """

    n: int
    support: tuple[Inequality, ...]
    random: tuple[Inequality, ...]
    c: np.ndarray
    params: GeneratorParams

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "random", tuple(self.random))
        object.__setattr__(self, "c", _frozen_vector(self.c))

    @property
    def m(self) -> int:
        return len(self.support) + len(self.random)

    @property
    def d(self) -> int:
        return len(self.random)

    @property
    def constraints(self) -> tuple[Inequality, ...]:
        return self.support + self.random

    def __eq__(self, other):
        if not isinstance(other, LPInstance):
            return NotImplemented
        return (
            self.n == other.n
            and self.support == other.support
            and self.random == other.random
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
    rows).  For the parallel engine, whose producers are stepped in worker
    order on the calling thread, coordinator_rejected_similarity is the
    coordinator-side share of it; the sequential engine reports it as 0.
    Once the target d is reached mid-round, the producers not yet stepped in
    that round draw nothing: each counts as one discarded submission in
    discarded_surplus, and

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
