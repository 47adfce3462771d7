"""Candidate drawing, filtering, and the two generation engines.

The public operations ``draw_candidate`` and ``filter_candidate`` define the
reference semantics: one candidate at a time, four checks in a fixed order
(center feasibility by sign flip at draw time, then distance band, objective
improvement, dissimilarity).  The engines process candidates in blocks for
speed, but consume the random stream in the same word order and push every
value through the same row kernels, so their accept/reject decisions, stats,
and output instances match a one-at-a-time replay exactly.  They decide
likeness to the bounding rows with ``BoundingScreen``, which gives the
verdict of a dense index of those rows without storing them.
"""
from __future__ import annotations

import enum
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    BoundingScreen,
    SimilarityIndex,
    distance_to_center,
    hypercube_center,
    objective_value,
    project_center,
    row_dots,
    row_sumsq,
)
from .model import (
    GenerationStats,
    GeneratorParams,
    Inequality,
    LPInstance,
    ParameterError,
    validate_params,
)
from .rng import RngStream, derive_stream, scale_units, words_to_signs, words_to_units
from .support import build_objective, build_support


class CandidateVerdict(enum.Enum):
    ACCEPTED = "accepted"
    REJECTED_DISTANCE = "rejected_distance"
    REJECTED_OBJECTIVE = "rejected_objective"
    REJECTED_SIMILARITY = "rejected_similarity"


class GenerationStalledError(RuntimeError):
    """Attempt budget exhausted without an acceptance."""

    def __init__(self, message: str, stats: GenerationStats):
        super().__init__(message)
        self.stats = stats


def _require_valid(params: GeneratorParams) -> None:
    violations = validate_params(params)
    if violations:
        raise ParameterError(violations)


def draw_candidate(stream: RngStream, params: GeneratorParams, h: np.ndarray) -> Inequality:
    """Draw one random inequality, already flipped to keep h feasible.

    Consumes n+1 sign words then n+1 magnitude words per candidate, in one
    ``raw_words`` call; a stream without ``raw_words`` is read through its
    ``next_signs`` / ``next_reals`` / ``next_real`` draws in the same order.
    An all-zero coefficient row is redrawn internally and never surfaces.
    """
    n = params.n
    raw_words = getattr(stream, "raw_words", None)
    while True:
        if raw_words is None:
            signs = stream.next_signs(n + 1)
            a = signs[:n] * stream.next_reals(0.0, params.a_max, n)
            b = float(signs[n] * stream.next_real(0.0, params.b_max))
        else:
            words = raw_words(2 * n + 2)
            signs = words_to_signs(words[: n + 1])
            units = words_to_units(words[n + 1 :])
            a = signs[:n] * scale_units(units[:n], 0.0, params.a_max)
            b = float(signs[n] * scale_units(units[n], 0.0, params.b_max))
        if float(row_sumsq(a)) == 0.0:
            continue
        if float(row_dots(a, h)) > b:
            a = -a
            b = -b
        return Inequality(a, b)


def filter_candidate(
    q: Inequality,
    params: GeneratorParams,
    h: np.ndarray,
    c: np.ndarray,
    existing,
) -> CandidateVerdict:
    """Classify one candidate against the acceptance conditions, in order:
    distance band, objective improvement, dissimilarity versus ``existing``."""
    dist = distance_to_center(h, q)
    if not params.rho < dist <= params.theta:
        return CandidateVerdict.REJECTED_DISTANCE
    if objective_value(c, project_center(h, q)) <= objective_value(c, h):
        return CandidateVerdict.REJECTED_OBJECTIVE
    index = SimilarityIndex.from_inequalities(
        existing, params.n, params.l_max, params.s_min
    )
    if index.any_alike(q.a, q.b):
        return CandidateVerdict.REJECTED_SIMILARITY
    return CandidateVerdict.ACCEPTED


# --- block machinery -------------------------------------------------------

# Candidate fates within a block. Zero-norm rows are skipped, never examined.
_SKIP, _REJ_DIST, _REJ_OBJ, _SURVIVOR = 0, 1, 2, 3


@dataclass
class _Block:
    a: np.ndarray              # (size, n) rows, flipped to center-feasible form
    b: np.ndarray              # (size,)
    cum_examined: np.ndarray   # inclusive prefix counts over the block
    cum_rej_distance: np.ndarray
    cum_rej_objective: np.ndarray
    survivors: np.ndarray      # ascending positions that passed both stages
    size: int


def _cum_at(cum: np.ndarray, pos: int) -> int:
    return 0 if pos < 0 else int(cum[pos])


class _CandidateFeed:
    """Draws candidate blocks off one stream, pre-running the two stateless
    stages (distance band, objective improvement) vectorized."""

    def __init__(self, stream: RngStream, params: GeneratorParams, h: np.ndarray, c: np.ndarray):
        self._stream = stream
        self._p = params
        self._h = h
        self._c = c
        self._f_h = objective_value(c, h)
        words_per = 2 * (params.n + 1)
        self._words_per = words_per
        self._size = max(16, min(4096, 262144 // words_per))

    def next_block(self) -> _Block:
        p = self._p
        n = p.n
        size = self._size
        w = self._stream.raw_words(size * self._words_per).reshape(size, self._words_per)
        signs = words_to_signs(w[:, : n + 1])
        units = words_to_units(w[:, n + 1 :])
        a = signs[:, :n] * scale_units(units[:, :n], 0.0, p.a_max)
        b = signs[:, n] * scale_units(units[:, n], 0.0, p.b_max)

        ah = row_dots(a, self._h)
        flip = ah > b
        a[flip] *= -1.0
        b[flip] *= -1.0
        ah[flip] *= -1.0

        nsq = row_sumsq(a)
        nonzero = nsq > 0.0
        dist = np.full(size, np.nan)
        np.divide(b - ah, np.sqrt(nsq), out=dist, where=nonzero)

        code = np.zeros(size, dtype=np.uint8)
        in_band = (dist > p.rho) & (dist <= p.theta)
        code[nonzero & ~in_band] = _REJ_DIST
        stage2 = np.nonzero(in_band)[0]
        if stage2.size:
            t = (ah[stage2] - b[stage2]) / nsq[stage2]
            proj = self._h - t[:, None] * a[stage2]
            improves = row_dots(proj, self._c) > self._f_h
            code[stage2[~improves]] = _REJ_OBJ
            code[stage2[improves]] = _SURVIVOR

        return _Block(
            a=a,
            b=b,
            cum_examined=np.cumsum(code != _SKIP),
            cum_rej_distance=np.cumsum(code == _REJ_DIST),
            cum_rej_objective=np.cumsum(code == _REJ_OBJ),
            survivors=np.nonzero(code == _SURVIVOR)[0],
            size=size,
        )


class _StreamWalker:
    """Sequential view over a feed: yields survivors in exact stream order
    while tallying rejections and enforcing the attempt budget."""

    def __init__(self, feed: _CandidateFeed, max_attempts: int):
        self._feed = feed
        self._max = max_attempts
        self.examined = 0
        self.rej_distance = 0
        self.rej_objective = 0
        self.rej_similarity = 0
        self.attempts = 0          # consecutive examined draws without an acceptance
        self._block: _Block | None = None
        self._si = 0
        self._prev = -1

    def _consume_to(self, pos: int) -> None:
        blk = self._block
        self.examined += _cum_at(blk.cum_examined, pos) - _cum_at(blk.cum_examined, self._prev)
        self.rej_distance += _cum_at(blk.cum_rej_distance, pos) - _cum_at(blk.cum_rej_distance, self._prev)
        self.rej_objective += _cum_at(blk.cum_rej_objective, pos) - _cum_at(blk.cum_rej_objective, self._prev)
        self._prev = pos

    def _stats(self) -> GenerationStats:
        return GenerationStats(
            candidates_drawn=self.examined,
            rejected_distance=self.rej_distance,
            rejected_objective=self.rej_objective,
            rejected_similarity=self.rej_similarity,
        )

    def stalled(self) -> GenerationStalledError:
        reason = _dominating_reason(self.rej_distance, self.rej_objective, self.rej_similarity)
        return GenerationStalledError(
            f"no acceptance within {self._max} consecutive draws "
            f"(dominating reason: {reason})",
            self._stats(),
        )

    def _stall_in_gap(self) -> None:
        # The budget crossing happens strictly between survivors; cut the
        # counters at the exact crossing candidate before raising.
        blk = self._block
        need = self._max - self.attempts
        target = _cum_at(blk.cum_examined, self._prev) + need
        cut = int(np.searchsorted(blk.cum_examined, target))
        self._consume_to(cut)
        self.attempts = self._max
        raise self.stalled()

    def note_similarity_rejection(self) -> None:
        self.rej_similarity += 1
        if self.attempts >= self._max:
            raise self.stalled()

    def next_survivor(self) -> tuple[np.ndarray, float]:
        while True:
            if self._block is None:
                self._block = self._feed.next_block()
                self._si = 0
                self._prev = -1
            blk = self._block
            if self._si < len(blk.survivors):
                pos = int(blk.survivors[self._si])
                self._si += 1
                pre = _cum_at(blk.cum_examined, pos - 1) - _cum_at(blk.cum_examined, self._prev)
                if self.attempts + pre >= self._max:
                    self._stall_in_gap()
                self._consume_to(pos)
                self.attempts += pre + 1
                return blk.a[pos], float(blk.b[pos])
            last = blk.size - 1
            tail = _cum_at(blk.cum_examined, last) - _cum_at(blk.cum_examined, self._prev)
            if self.attempts + tail >= self._max:
                self._stall_in_gap()
            self._consume_to(last)
            self.attempts += tail
            self._block = None


def _dominating_reason(rej_distance: int, rej_objective: int, rej_similarity: int) -> str:
    counts = {
        "rejected_distance": rej_distance,
        "rejected_objective": rej_objective,
        "rejected_similarity": rej_similarity,
    }
    return max(counts, key=counts.get)


# --- engines ----------------------------------------------------------------


def generate_sequential(params: GeneratorParams) -> tuple[LPInstance, GenerationStats]:
    """Generate one instance on a single stream (id 0).

    Returns the instance and the run counters.  Raises ParameterError on an
    unusable parameter set and GenerationStalledError when max_attempts
    consecutive candidates fail, naming the dominating rejection reason.
    """
    _require_valid(params)
    t0 = time.perf_counter()
    n, d = params.n, params.d
    support = build_support(n, params.alpha)
    c = build_objective(n, params.theta)
    h = hypercube_center(n, params.alpha)

    accepted: list[Inequality] = []
    walker: _StreamWalker | None = None
    if d > 0:
        feed = _CandidateFeed(derive_stream(params.seed, 0), params, h, c)
        screen = BoundingScreen(n, params.alpha, params.l_max, params.s_min)
        index = SimilarityIndex(n, params.l_max, params.s_min, capacity=d + 1)
        walker = _StreamWalker(feed, params.max_attempts)
        try:
            while len(accepted) < d:
                a, b = walker.next_survivor()
                if screen.any_alike(a, b) or index.any_alike(a, b):
                    walker.note_similarity_rejection()
                else:
                    q = Inequality(a, b)
                    accepted.append(q)
                    index.append(q.a, q.b)
                    walker.attempts = 0
        except GenerationStalledError as err:
            wall = (time.perf_counter() - t0) * 1000.0
            raise GenerationStalledError(
                str(err), replace(err.stats, wall_time_ms=wall)
            ) from None

    wall = (time.perf_counter() - t0) * 1000.0
    if walker is None:
        stats = GenerationStats(0, 0, 0, 0, wall_time_ms=wall)
    else:
        stats = replace(walker._stats(), wall_time_ms=wall)
    instance = LPInstance(n=n, support=tuple(support), random=tuple(accepted), c=c, params=params)
    return instance, stats


class _Worker:
    """One parallel producer: filters candidates from its own stream against
    the distance, objective, and support-similarity conditions."""

    def __init__(self, params, stream, h, c, screen):
        self.walker = _StreamWalker(_CandidateFeed(stream, params, h, c), params.max_attempts)
        self._screen = screen

    def next_submission(self) -> tuple[np.ndarray, float]:
        while True:
            a, b = self.walker.next_survivor()
            if self._screen.any_alike(a, b):
                self.walker.note_similarity_rejection()
                continue
            self.walker.attempts = 0
            return a, b


def generate_parallel(params: GeneratorParams) -> tuple[LPInstance, GenerationStats]:
    """Generate one instance with ``params.workers`` producer streams.

    Round protocol: each worker submits one pre-filtered candidate per round;
    the coordinator examines submissions in worker order, rejects those alike
    to an already accepted random inequality, and stops at d acceptances,
    discarding the surplus of the final round.  Output depends only on (seed,
    workers), never on thread scheduling.
    """
    _require_valid(params)
    t0 = time.perf_counter()
    n, d, L = params.n, params.d, params.workers
    support = build_support(n, params.alpha)
    c = build_objective(n, params.theta)
    h = hypercube_center(n, params.alpha)

    accepted: list[Inequality] = []
    coord_rej = 0
    discarded = 0
    rounds = 0
    workers: list[_Worker] = []

    def merged_stats(wall: float) -> GenerationStats:
        # candidates_drawn counts draws that reached a terminal fate, so the
        # conservation identity holds for this engine too; the surplus
        # submissions thrown away once d was reached are tallied separately.
        examined = sum(w.walker.examined for w in workers)
        return GenerationStats(
            candidates_drawn=examined - discarded,
            rejected_distance=sum(w.walker.rej_distance for w in workers),
            rejected_objective=sum(w.walker.rej_objective for w in workers),
            rejected_similarity=sum(w.walker.rej_similarity for w in workers) + coord_rej,
            coordinator_rejected_similarity=coord_rej,
            discarded_surplus=discarded,
            rounds=rounds,
            wall_time_ms=wall,
        )

    def merged_stall(message: str) -> GenerationStalledError:
        wall = (time.perf_counter() - t0) * 1000.0
        stats = merged_stats(wall)
        return GenerationStalledError(message, stats)

    if d > 0:
        screen = BoundingScreen(n, params.alpha, params.l_max, params.s_min)
        accepted_index = SimilarityIndex(n, params.l_max, params.s_min, capacity=d + 1)
        workers = [
            _Worker(params, derive_stream(params.seed, l), h, c, screen)
            for l in range(1, L + 1)
        ]
        examined_at_accept = 0
        with ThreadPoolExecutor(max_workers=L) as pool:
            while len(accepted) < d:
                futures = [pool.submit(w.next_submission) for w in workers]
                outcomes = []
                failure: GenerationStalledError | None = None
                for f in futures:
                    try:
                        outcomes.append(f.result())
                    except GenerationStalledError as err:
                        failure = failure or err
                        outcomes.append(None)
                rounds += 1
                if failure is not None:
                    raise merged_stall(str(failure)) from None
                accepted_this_round = False
                for a, b in outcomes:
                    if len(accepted) == d:
                        discarded += 1
                        continue
                    if accepted_index.any_alike(a, b):
                        coord_rej += 1
                        continue
                    q = Inequality(a, b)
                    accepted.append(q)
                    accepted_index.append(q.a, q.b)
                    accepted_this_round = True
                if len(accepted) < d:
                    total = sum(w.walker.examined for w in workers)
                    if accepted_this_round:
                        examined_at_accept = total
                    elif total - examined_at_accept >= params.max_attempts:
                        raise merged_stall(
                            f"no acceptance within {total - examined_at_accept} draws "
                            "across all workers (dominating reason: rejected_similarity "
                            "at the coordinator)"
                        )

    wall = (time.perf_counter() - t0) * 1000.0
    stats = merged_stats(wall)
    instance = LPInstance(n=n, support=tuple(support), random=tuple(accepted), c=c, params=params)
    return instance, stats
