"""Candidate drawing, filtering, and the one round loop behind both engines.

The public operations ``draw_candidate`` and ``filter_candidate`` define the
reference semantics: one candidate at a time, four checks in a fixed order
(center feasibility by sign flip at draw time, then distance band, objective
improvement, dissimilarity).  Both engines run the master/worker round
protocol in ``_generate``: the sequential engine is one producer on stream 0,
the parallel engine one producer per worker on streams 1..L, stepped in
worker order on the calling thread.  Each producer is one ``_Producer``: it
draws candidates in blocks for speed, but consumes the random stream in the
same word order and pushes every value through the same row kernels, so the
accept/reject decisions, stats, and output instances match a one-at-a-time
replay exactly.  A producer's three checks depend on the candidate alone, so
each runs once over a block: the distance band and objective improvement
over all its candidates, then likeness to the bounding rows over the
survivors of those two, with ``BoundingScreen.alike_rows``, which gives the
verdict of a dense index of the bounding rows without storing them.  A block
is then only its rows ``a`` and ``b`` and one fate code per candidate; the
producer walks it in stream order, handing out survivors and tallying fates.
Only the coordinator's check against the accepted rows runs one submission
at a time.
"""
from __future__ import annotations

import enum
import time
from collections.abc import Sequence

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
    An all-zero coefficient row is redrawn internally and never surfaces;
    params that ``validate_params`` refuses raise ``ParameterError`` first,
    so an ``a_max`` whose square is 0 cannot redraw forever.
    """
    _require_valid(params)
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


# --- the producer ----------------------------------------------------------

# Candidate fates within a block, and the indices of a producer's tally.
# Zero-norm rows are skipped: never examined, so no counter or budget sees them.
_SKIP, _REJ_DIST, _REJ_OBJ, _REJ_SIM, _SURVIVOR = range(5)


class _Producer:
    """One worker of the round protocol: it draws candidate blocks off its
    stream and walks them in stream order, handing out survivors of its
    three checks and tallying every candidate's fate on the way.

    The checks run vectorized over a block: distance band and objective
    improvement over all its candidates, then likeness to the bounding rows
    over the survivors of those two, in one ``BoundingScreen.alike_rows``
    call.  Blocks start at 64 candidates and double up to a cap of about
    256k words, so a producer that needs few survivors (one of many
    workers, or a small d) draws little beyond them.  Blocks are consecutive
    slices of the stream, so the size schedule never changes which words a
    candidate gets.
    """

    def __init__(
        self,
        stream: RngStream,
        params: GeneratorParams,
        h: np.ndarray,
        c: np.ndarray,
        screen: BoundingScreen,
    ):
        self._stream = stream
        self._p = params
        self._h = h
        self._c = c
        self._screen = screen
        self._f_h = objective_value(c, h)
        words_per = 2 * (params.n + 1)
        self._words_per = words_per
        self._cap = max(16, min(4096, 262144 // words_per))
        self._size = min(64, self._cap)
        self.tally = np.zeros(5, dtype=np.int64)  # indexed by fate
        # The current block, set by _next_block: rows a and b, one fate code
        # each, the examined draws before each row, the survivor positions,
        # and a cursor of survivors handed out and rows tallied.  It starts
        # empty, so the first call draws.
        self._code = np.zeros(0, dtype=np.uint8)
        self._done = 0

    def _next_block(self) -> None:
        p = self._p
        n = p.n
        size = self._size
        self._size = min(2 * size, self._cap)
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
            stage3 = stage2[improves]
            alike = self._screen.alike_rows(a[stage3], b[stage3])
            code[stage3[alike]] = _REJ_SIM
            code[stage3[~alike]] = _SURVIVOR

        self._a, self._b, self._code = a, b, code
        self._examined = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(code != _SKIP, out=self._examined[1:])
        self._survivors = np.flatnonzero(code == _SURVIVOR)
        self._si = self._done = 0

    def _consume(self, end: int) -> None:
        # Tally the block's rows up to, not including, end.
        self.tally += np.bincount(self._code[self._done : end], minlength=5)
        self._done = end

    def next_survivor(self, room: int) -> tuple[np.ndarray, float, int] | None:
        """The next survivor as (a, b, draws), where draws counts the examined
        draws up to and including it; None when ``room`` examined draws
        would all be rejections, with the counters cut at the room-th."""
        draws = 0
        while True:
            if self._done == self._code.size:
                self._next_block()
            # Walk to just past the next survivor, or to the block's end.
            examined = self._examined
            hit = self._si < self._survivors.size
            end = int(self._survivors[self._si]) + 1 if hit else self._code.size
            step = int(examined[end] - examined[self._done])
            if draws + step > room:
                # The room-th examined draw comes first: tally up to it.  A
                # block whose tail ends on it is walked whole, which adds
                # only skips, and the cut lands at the next block's start.
                target = examined[self._done] + room - draws
                self._consume(int(np.searchsorted(examined, target)))
                return None
            self._consume(end)
            draws += step
            if hit:
                self._si += 1
                return self._a[end - 1], float(self._b[end - 1]), draws


# --- the round loop ---------------------------------------------------------


def _generate(
    params: GeneratorParams, stream_ids: Sequence[int]
) -> tuple[LPInstance, GenerationStats]:
    """Run the round protocol with one producer per stream id.

    Each round steps the producers in stream order on the calling thread.  A
    producer walks its stream to the next survivor of the distance,
    objective and bounding-row stages and submits it; the
    coordinator rejects a submission alike to an accepted row, and once d
    rows are accepted counts the producers not yet stepped in that round as
    discarded_surplus, without stepping them.
    Producers never see the coordinator's state, so judging each submission
    as it arrives gives the verdicts of judging the whole round afterwards.

    One budget covers all producers: max_attempts examined draws in a row,
    in the order the producers are stepped, without an acceptance stall the
    run, with the counters cut at that draw.  Stream 0 is the sequential
    engine's, which reports no rounds and no coordinator share.
    """
    _require_valid(params)
    t0 = time.perf_counter()
    n, d, budget = params.n, params.d, params.max_attempts
    support = build_support(n, params.alpha)
    c = build_objective(n, params.theta)
    h = hypercube_center(n, params.alpha)
    screen = BoundingScreen(n, params.alpha, params.l_max, params.s_min)
    index = SimilarityIndex(n, params.l_max, params.s_min, capacity=d + 1)
    producers = [
        _Producer(derive_stream(params.seed, s), params, h, c, screen) for s in stream_ids
    ]
    sequential = list(stream_ids) == [0]
    accepted: list[Inequality] = []
    coord_rej = discarded = rounds = 0
    attempts = 0  # examined draws since the last acceptance, over all producers

    def stats() -> GenerationStats:
        # Every examined draw reached a terminal fate: the surplus producers
        # of the final round are never stepped, and are tallied apart.
        tally = sum(p.tally for p in producers).tolist()
        return GenerationStats(
            candidates_drawn=sum(tally[_REJ_DIST:]),
            rejected_distance=tally[_REJ_DIST],
            rejected_objective=tally[_REJ_OBJ],
            rejected_similarity=tally[_REJ_SIM] + coord_rej,
            coordinator_rejected_similarity=0 if sequential else coord_rej,
            discarded_surplus=discarded,
            rounds=0 if sequential else rounds,
            wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        )

    def stalled() -> GenerationStalledError:
        s = stats()
        counts = {
            "rejected_distance": s.rejected_distance,
            "rejected_objective": s.rejected_objective,
            "rejected_similarity": s.rejected_similarity,
        }
        reason = max(counts, key=counts.get)
        return GenerationStalledError(
            f"no acceptance within {budget} consecutive draws (dominating reason: {reason})", s
        )

    while len(accepted) < d:
        rounds += 1
        for k, producer in enumerate(producers):
            if len(accepted) == d:
                discarded += len(producers) - k
                break
            survivor = producer.next_survivor(budget - attempts)
            if survivor is None:
                raise stalled()
            a, b, draws = survivor
            attempts += draws
            if index.any_alike(a, b):
                coord_rej += 1
                if attempts >= budget:
                    raise stalled()
            else:
                q = Inequality(a, b)
                accepted.append(q)
                index.append(q.a, q.b)
                attempts = 0

    instance = LPInstance(n=n, support=tuple(support), random=tuple(accepted), c=c, params=params)
    return instance, stats()


def generate_sequential(params: GeneratorParams) -> tuple[LPInstance, GenerationStats]:
    """Generate one instance on a single stream (id 0).

    Returns the instance and the run counters.  Raises ParameterError on an
    unusable parameter set and GenerationStalledError when max_attempts
    consecutive candidates fail, naming the dominating rejection reason.
    """
    return _generate(params, (0,))


def generate_parallel(params: GeneratorParams) -> tuple[LPInstance, GenerationStats]:
    """Generate one instance with ``params.workers`` producer streams.

    Round protocol: worker l draws from stream l and submits one pre-filtered
    candidate per round; the coordinator examines submissions in worker
    order, rejects those alike to an already accepted random inequality, and
    stops at d acceptances, discarding the surplus of the final round.  The
    producers are stepped in worker order on the calling thread, so output
    depends only on (seed, workers).
    """
    return _generate(params, range(1, params.workers + 1))
