"""Candidate drawing, filtering, and the one round loop behind both engines.

The public operations ``draw_candidate`` and ``filter_candidate`` define the
reference semantics: one candidate at a time, four checks in a fixed order
(center feasibility by sign flip at draw time, then distance band, objective
improvement, dissimilarity).  Both engines run the master/worker round
protocol in ``_generate``, and the worker count alone picks the streams: one
worker is the sequential engine, a producer on stream 0; L >= 2 workers are
one producer each on streams 1..L, stepped in worker order on the calling
thread.  Each producer is one ``_Producer``: it draws candidates in blocks
for speed, but consumes the random stream in the same word order and pushes
every value through the same row kernels, so the accept/reject decisions,
stats, and output instances match a one-at-a-time replay exactly.  A producer's three checks depend on the candidate alone, so
each runs once over a block: the distance band and objective improvement
over all its candidates, then likeness to the bounding rows over the
survivors of those two, with ``BoundingScreen.alike_rows``, which gives the
verdict of a dense index of the bounding rows without storing them.  A block
is then only its rows ``a`` and ``b`` and one fate code per candidate; the
producer hands out its survivors in stream order and tallies the fates of the
rows they consume.  The coordinator's check against the accepted rows runs
over a batch too: the survivors the producers' current blocks already hold,
taken in protocol order, are judged in one ``SimilarityIndex.any_alike``
call, which gives the verdicts of judging them one at a time.
"""
from __future__ import annotations

import enum
import time

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
    BoundingBlock,
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
        # empty, so the first refill draws.
        self._code = np.zeros(0, dtype=np.uint8)
        self._examined = np.zeros(1, dtype=np.int64)
        self._survivors = np.zeros(0, dtype=np.intp)
        self._si = self._done = 0

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

    def refill(self, room: int) -> int | None:
        """Make the current block hold a survivor not yet handed out: walk
        the rest of a spent block and draw blocks until one does.  Returns
        the examined draws walked, or None when ``room`` examined draws
        would all be rejections, with the counters cut at the room-th."""
        draws = 0
        while self._si == self._survivors.size:
            step = int(self._examined[-1] - self._examined[self._done])
            if draws + step > room:
                self.cut(room - draws)
                return None
            self._consume(self._code.size)
            draws += step
            self._next_block()
        return draws

    def pending(self) -> int:
        """Survivors the current block holds beyond those handed out."""
        return self._survivors.size - self._si

    def lookahead(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next ``count`` survivors of the current block, not yet handed
        out: rows a and b, and the examined draws after the previous one (or
        the cursor) up to and including each."""
        rows = self._survivors[self._si : self._si + count]
        draws = np.diff(self._examined[np.concatenate(([self._done], rows + 1))])
        return self._a[rows], self._b[rows], draws

    def take(self, count: int) -> None:
        """Hand out the next ``count`` survivors, tallying the rows up to and
        including the last of them."""
        self._si += count
        self._consume(int(self._survivors[self._si - 1]) + 1)

    def cut(self, room: int) -> None:
        """Tally up to the room-th examined draw after the cursor.  When a
        block's tail ends on it, the block is walked whole, which adds only
        skips, and the cut lands at the next block's start."""
        examined = self._examined
        self._consume(int(np.searchsorted(examined, examined[self._done] + room)))


# --- the round loop ---------------------------------------------------------

# The most submissions the coordinator judges in one batch.
_BATCH = 64


def _generate(params: GeneratorParams, workers: int) -> tuple[LPInstance, GenerationStats]:
    """Run the round protocol with ``workers`` producers.

    One worker draws from stream 0 and is the sequential engine: it reports
    no rounds, no coordinator share and no discarded surplus.  L >= 2
    workers draw from streams 1..L.

    Each round steps the producers in stream order on the calling thread.  A
    producer walks its stream to the next survivor of the distance,
    objective and bounding-row stages and submits it; the coordinator
    rejects a submission alike to an accepted row, and once d rows are
    accepted counts the producers not yet stepped in that round as
    discarded_surplus, without stepping them.

    The coordinator judges submissions in batches.  A batch takes them in
    protocol order, round robin over the producers, for as long as each
    producer's current block still holds a survivor, and at most _BATCH, so
    it looks at only the next min(L, _BATCH) producers; only its first
    producer may draw a block to get one, so no word is drawn
    that judging one submission at a time would not draw.  One
    ``SimilarityIndex.any_alike`` call gives every verdict of the batch, an
    earlier submission of it counting only when accepted, and the batch is
    then walked in order with plain integers: the examined draws before
    each submission, the budget, the stop at d and the stall cut.
    Producers tally only the rows the walk consumes, and the accepted rows
    go to the index in one ``append``.  Producers never see the
    coordinator's state, so the verdicts, counters and output are those of
    judging each submission as it arrives.

    One budget covers all producers: max_attempts examined draws in a row,
    in the order the producers are stepped, without an acceptance stall the
    run, with the counters cut at that draw.
    """
    _require_valid(params)
    t0 = time.perf_counter()
    n, d, budget = params.n, params.d, params.max_attempts
    # The instance keeps its bounding rows in closed form; the rows built
    # here only give perfbench's tracer its support span (perfbench/spans.py).
    build_support(n, params.alpha)
    c = build_objective(n, params.theta)
    h = hypercube_center(n, params.alpha)
    screen = BoundingScreen(n, params.alpha, params.l_max, params.s_min)
    index = SimilarityIndex(n, params.l_max, params.s_min)
    sequential = workers == 1
    producers = [
        _Producer(derive_stream(params.seed, s), params, h, c, screen)
        for s in ((0,) if sequential else range(1, workers + 1))
    ]
    # The accepted rows, one stack per batch, so nothing is sized by d
    # before a row is accepted; the instance gets them as one array.
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    filled = 0
    coord_rej = discarded = 0
    steps = 0  # producers stepped, the one that stalls included
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
            rounds=0 if sequential else -(-steps // workers),
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

    # for j >= _BATCH the bound j + workers * pending is at least _BATCH, so
    # only the first _BATCH producers of a batch's order can bound or join it
    width = min(workers, _BATCH)
    while filled < d:
        # producers in the batch's protocol order, from the one due next
        order = [producers[(steps + j) % workers] for j in range(width)]
        walked = order[0].refill(budget - attempts)
        if walked is None:
            steps += 1
            raise stalled()
        attempts += walked
        size = min(_BATCH, min(j + workers * p.pending() for j, p in enumerate(order)))
        a = np.empty((size, n))
        b = np.empty(size)
        draws = np.empty(size, dtype=np.int64)
        for j, p in enumerate(order[:size]):
            a[j::workers], b[j::workers], draws[j::workers] = p.lookahead(
                len(range(j, size, workers))
            )
        alike = index.any_alike(a, b).tolist()

        taken = [0] * width  # per producer, in batch order
        fresh: list[int] = []  # the accepted rows of the batch
        stall = cut = False
        for t, dt in enumerate(draws.tolist()):
            steps += 1
            if attempts + dt > budget:
                stall = cut = True
                break
            attempts += dt
            taken[t % workers] += 1
            if alike[t]:
                coord_rej += 1
                if attempts >= budget:
                    stall = True
                    break
            else:
                fresh.append(t)
                attempts = 0
                if filled + len(fresh) == d:
                    break
        for p, count in zip(order, taken):
            if count:
                p.take(count)
        if cut:
            order[t % workers].cut(budget - attempts)
        if fresh:
            kept.append((a[fresh], b[fresh]))
            index.append(*kept[-1])
            filled += len(fresh)
        if stall:
            raise stalled()

    discarded = -steps % workers
    a = np.concatenate([rows for rows, _ in kept]) if kept else np.empty((0, n))
    b = np.concatenate([vs for _, vs in kept]) if kept else np.empty(0)
    bounding = BoundingBlock.canonical(n, params.alpha)
    instance = LPInstance.from_arrays(n, bounding, a, b, c, params)
    return instance, stats()


def generate_sequential(params: GeneratorParams) -> tuple[LPInstance, GenerationStats]:
    """Generate one instance on a single stream (id 0).

    Returns the instance and the run counters.  Raises ParameterError on an
    unusable parameter set and GenerationStalledError when max_attempts
    consecutive candidates fail, naming the dominating rejection reason.
    """
    return _generate(params, 1)


def generate_parallel(params: GeneratorParams) -> tuple[LPInstance, GenerationStats]:
    """Generate one instance with ``params.workers`` producer streams.

    One worker is ``generate_sequential``: stream 0, the same instance and
    counters.  With L >= 2, round protocol: worker l draws from stream l and
    submits one pre-filtered candidate per round; the coordinator examines
    submissions in worker order, rejects those alike to an already accepted
    random inequality, and stops at d acceptances, discarding the surplus of
    the final round.  The producers are stepped in worker order on the
    calling thread, so output depends only on (seed, workers).
    """
    return _generate(params, params.workers)
