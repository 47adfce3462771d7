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
stats, and output instances match a one-at-a-time replay exactly.  A
producer's three checks depend on the candidate alone, so each runs once
over a block: the distance band and objective improvement over all its
candidates, from one ``geometry.center_terms`` call, then likeness to the
bounding rows over the survivors of those two, with
``geometry.bounding_alike`` of the run's one canonical ``BoundingBlock``,
which gives the verdict of a dense index of the bounding rows without
storing them.  A row and its negation have the same distance and
projection, so a producer decides those two fates before
the flip and flips only the rows it screens, where the reference flips every
draw.  A block is then only its survivors' rows ``a`` and ``b`` and one fate
code per candidate; the producer hands out its survivors in stream order and
tallies the fates of the rows they consume.  The coordinator's check against
the accepted rows runs over a batch too: the survivors the producers' current
blocks already hold, taken in protocol order, are judged in one
``SimilarityIndex.any_alike`` call, which gives the verdicts of judging them
one at a time.
"""
from __future__ import annotations

import enum
import time
from dataclasses import replace

import numpy as np

from .geometry import (
    SimilarityIndex,
    bounding_alike,
    center_terms,
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
    build_objective,
    build_support,  # unused: perfbench/spans.py patches this name here
    refuse,
    validate_params,
)
from .rng import RngStream, derive_stream, words_to_signs, words_to_units


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


def _candidate_rows(words: np.ndarray, params: GeneratorParams) -> tuple[np.ndarray, np.ndarray]:
    """The rows (a, b) of the candidates whose 2n+2 words lie along the last
    axis of ``words``: n+1 sign words, then n+1 unit words, each value
    ``sign * (r * unit)`` with r = a_max for a and b_max for b."""
    n = params.n
    signs = words_to_signs(words[..., : n + 1])
    units = words_to_units(words[..., n + 1 :])
    a = signs[..., :n] * (params.a_max * units[..., :n])
    b = signs[..., n] * (params.b_max * units[..., n])
    return a, b


def draw_candidate(stream: RngStream, params: GeneratorParams, h: np.ndarray) -> Inequality:
    """Draw one random inequality, already flipped to keep h feasible.

    Reads 2n+2 words per candidate in one ``raw_words`` call and maps them
    with ``_candidate_rows``, the map the engines apply to whole blocks.  An
    all-zero coefficient row is redrawn internally and never surfaces;
    params that ``validate_params`` refuses raise ``ParameterError`` first,
    so an ``a_max`` whose square is 0 cannot redraw forever, and no draw's
    arithmetic overflows.  The flip happens here, at draw time, as the
    reference order has it; the engines flip only the rows they screen.
    """
    refuse(validate_params(params))
    n = params.n
    while True:
        a, b = _candidate_rows(stream.raw_words(2 * n + 2), params)
        b = float(b)
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
    improvement over all its candidates, from one ``center_terms`` call and
    before any flip, then likeness to the bounding rows over the survivors
    of those two, in one ``bounding_alike`` call.  Only those
    screened rows are flipped to keep h feasible: the distance and the
    projection of a row and its negation agree bit for bit, so the fates are
    those of the reference, which flips at draw time.  Blocks start at 64
    candidates and double up to a cap of about 256k words, so a producer
    that needs few survivors (one of many workers, or a small d) draws
    little beyond them.  Blocks are consecutive slices of the stream, so the
    size schedule never changes which words a candidate gets.
    """

    def __init__(
        self,
        stream: RngStream,
        params: GeneratorParams,
        h: np.ndarray,
        c: np.ndarray,
        block: BoundingBlock,
    ):
        self._stream = stream
        self._p = params
        self._h = h
        self._c = c
        self._block = block
        self._f_h = objective_value(c, h)
        words_per = 2 * (params.n + 1)
        self._words_per = words_per
        self._cap = max(16, min(4096, 262144 // words_per))
        self._size = min(64, self._cap)
        self.tally = np.zeros(5, dtype=np.int64)  # indexed by fate
        # The current block, set by _next_block: its survivors' rows a and b,
        # one fate code per row, the examined draws before each row, the
        # survivor positions, and a cursor of survivors handed out and rows
        # tallied.  It starts empty, so the first refill draws.
        self._code = np.zeros(0, dtype=np.uint8)
        self._examined = np.zeros(1, dtype=np.int64)
        self._survivors = np.zeros(0, dtype=np.intp)
        self._si = self._done = 0

    def _next_block(self) -> None:
        p = self._p
        size = self._size
        self._size = min(2 * size, self._cap)
        w = self._stream.raw_words(size * self._words_per).reshape(size, self._words_per)
        a, b = _candidate_rows(w, p)

        # every fate is decided before the flip: a row and its negation have
        # the same distance and projection, so only the screened rows flip
        ah, nsq, dist, t = center_terms(a, b, self._h)
        code = np.zeros(size, dtype=np.uint8)
        in_band = (dist > p.rho) & (dist <= p.theta)
        code[(nsq > 0.0) & ~in_band] = _REJ_DIST
        stage2 = np.flatnonzero(in_band)
        improves = row_dots(self._h - t[stage2, None] * a[stage2], self._c) > self._f_h
        code[stage2[~improves]] = _REJ_OBJ
        stage3 = stage2[improves]
        sign = np.where(ah[stage3] > b[stage3], -1.0, 1.0)
        a, b = a[stage3] * sign[:, None], b[stage3] * sign
        alike = bounding_alike(self._block, a, b, p.l_max, p.s_min)
        code[stage3] = np.where(alike, _REJ_SIM, _SURVIVOR)

        # the block keeps only its survivors' rows, in stream order
        self._a, self._b, self._code = a[~alike], b[~alike], code
        self._examined = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(code != _SKIP, out=self._examined[1:])
        self._survivors = stage3[~alike]
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
        at = slice(self._si, self._si + count)
        draws = np.diff(self._examined[np.concatenate(([self._done], self._survivors[at] + 1))])
        return self._a[at], self._b[at], draws

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
    refuse(validate_params(params))
    t0 = time.perf_counter()
    n, d, budget = params.n, params.d, params.max_attempts
    c = build_objective(n, params.theta)
    h = hypercube_center(n, params.alpha)
    block = BoundingBlock.canonical(n, params.alpha)
    index = SimilarityIndex(n, params.l_max, params.s_min)
    sequential = workers == 1
    producers = [
        _Producer(derive_stream(params.seed, s), params, h, c, block)
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
    # params record the workers that ran: generate_sequential runs one,
    # whatever params.workers says
    return LPInstance(n, block, a, b, c, replace(params, workers=workers)), stats()


def generate_sequential(params: GeneratorParams) -> tuple[LPInstance, GenerationStats]:
    """Generate one instance on a single stream (id 0).

    Returns the instance, whose params record the one worker that ran
    whatever ``params.workers`` says, and the run counters.  Raises
    ParameterError on an unusable parameter set and GenerationStalledError
    when max_attempts consecutive candidates fail, naming the dominating
    rejection reason.
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
