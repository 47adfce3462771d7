import hashlib
from dataclasses import astuple, replace

import numpy as np
import pytest

import randlp.generator as generator_module
from randlp import (
    CandidateVerdict,
    GenerationStalledError,
    GeneratorParams,
    Inequality,
    ParameterError,
    SimilarityIndex,
    build_objective,
    build_support,
    derive_stream,
    draw_candidate,
    filter_candidate,
    generate_parallel,
    generate_sequential,
    hypercube_center,
    instance_to_text,
    validate_instance,
)
from randlp.generator import _candidate_rows
from randlp.geometry import center_terms, row_dots, row_sumsq
from randlp.model import BoundingBlock
from randlp.rng import words_to_units

from conftest import make_params


# the raw word of each unit draw 0 and 1
UNIT_WORD = {0: 0, 1: (2**53 - 1) << 11}


def candidate_words(signs, units):
    """The 2n+2 raw words of one candidate: n+1 signs, each in its word's
    low bit, then n+1 units, each 0 or 1."""
    return [int(sign < 0) for sign in signs] + [UNIT_WORD[u] for u in units]


class StubStream:
    """Scripted stand-in: hands out queued raw words."""

    def __init__(self, *candidates):
        self.words = [w for words in candidates for w in words]

    def raw_words(self, count):
        out = np.array(self.words[:count], dtype=np.uint64)
        del self.words[:count]
        return out


H2 = np.array([100.0, 100.0])


def test_draw_flips_to_keep_center_feasible():
    # scripted row (1,0) <= 20 excludes the center (100,100); the draw must
    # come back negated
    stub = StubStream(candidate_words([1, 1, 1], [1, 0, 1]))
    q = draw_candidate(stub, make_params(a_max=1.0, b_max=20.0), H2)
    assert np.array_equal(q.a, [-1.0, 0.0])
    assert q.b == -20.0


def test_draw_keeps_rows_already_feasible():
    stub = StubStream(candidate_words([1, 1, 1], [1, 0, 1]))
    q = draw_candidate(stub, make_params(a_max=1.0, b_max=500.0), H2)
    assert np.array_equal(q.a, [1.0, 0.0])
    assert q.b == 500.0


def test_draw_redraws_zero_norm_rows():
    # first scripted candidate is the zero row; it must be consumed in full
    # and silently replaced by the next one
    stub = StubStream(
        candidate_words([1, 1, 1], [0, 0, 1]),
        candidate_words([1, 1, 1], [1, 1, 1]),
    )
    q = draw_candidate(stub, make_params(a_max=3.0, b_max=7.0), H2)
    assert np.array_equal(q.a, [-3.0, -3.0])
    assert q.b == -7.0
    assert not stub.words


def test_draw_golden_first_candidate():
    q = draw_candidate(derive_stream(42, 0), make_params(), H2)
    assert q.a[0] == -309.3184096141446
    assert q.a[1] == -954.6560744177963
    assert q.b == -1750.9457955375133


def test_draw_respects_magnitude_caps():
    params = make_params(a_max=3.0, b_max=11.0)
    stream = derive_stream(1, 0)
    h = hypercube_center(2, params.alpha)
    for _ in range(500):
        q = draw_candidate(stream, params, h)
        assert np.all(np.abs(q.a) <= 3.0)
        assert abs(q.b) <= 11.0


def test_draw_refuses_a_max_whose_square_is_zero():
    class Bounded:
        """A stream that gives up after 1,000 draws instead of hanging."""

        def __init__(self, stream):
            self.stream, self.calls = stream, 0

        def raw_words(self, count):
            self.calls += 1
            if self.calls > 1000:
                raise RuntimeError("draw_candidate kept redrawing zero rows")
            return self.stream.raw_words(count)

    with pytest.raises(ParameterError, match=r"a_max\*a_max > 0"):
        draw_candidate(Bounded(derive_stream(0, 0)), GeneratorParams(n=2, a_max=1e-200), H2)


def _filter(q, existing=None, params=None):
    params = params or make_params()
    c = build_objective(2, params.theta)
    existing = list(build_support(2, params.alpha)) if existing is None else existing
    return filter_candidate(q, params, H2, c, existing)


def test_filter_rejects_outside_distance_band():
    # distance 30 from the center, below rho=50
    assert _filter(Inequality([1.0, 0.0], 130.0)) is CandidateVerdict.REJECTED_DISTANCE
    # distance 150, above theta=100
    assert _filter(Inequality([1.0, 0.0], 250.0)) is CandidateVerdict.REJECTED_DISTANCE
    # boundary: distance exactly rho is out (strict), exactly theta is in
    assert _filter(Inequality([1.0, 0.0], 150.0)) is CandidateVerdict.REJECTED_DISTANCE
    assert _filter(Inequality([0.9239, 0.3827], 200.71)) is CandidateVerdict.ACCEPTED


def test_filter_rejects_objective_nonimprovers():
    # distance 80 is in band, but the projection (20,100) scores 14000 < 30000
    assert _filter(Inequality([-1.0, 0.0], -20.0)) is CandidateVerdict.REJECTED_OBJECTIVE


def test_filter_accepts_improving_dissimilar_candidate():
    assert _filter(Inequality([0.9239, 0.3827], 200.71)) is CandidateVerdict.ACCEPTED


def test_filter_rejects_candidates_alike_to_existing():
    # (2,1) <= 450 shadows the diagonal support row (1,1) <= 300: direction
    # gap ~0.32 < 0.35 and offset gap ~10.9 < 100
    assert _filter(Inequality([2.0, 1.0], 450.0)) is CandidateVerdict.REJECTED_SIMILARITY


def test_filter_check_order_is_fixed():
    # fails band and objective: band verdict wins
    q = Inequality([-1.0, 0.0], -90.0)
    assert _filter(q) is CandidateVerdict.REJECTED_DISTANCE
    # distance 60 is in band; fails objective and similarity (alike to
    # (-1,0) <= 0, offset gap 40): the objective verdict wins
    q = Inequality([-1.0, 0.0], -40.0)
    assert _filter(q) is CandidateVerdict.REJECTED_OBJECTIVE


def test_filter_similarity_covers_accepted_rows_too():
    params = make_params()
    kept = Inequality([0.9239, 0.3827], 200.71)
    existing = list(build_support(2, params.alpha)) + [kept]
    near_copy = Inequality([0.9239 * 2, 0.3827 * 2], 200.71 * 2 + 1.0)
    assert _filter(near_copy, existing=existing) is CandidateVerdict.REJECTED_SIMILARITY


def test_sequential_rejects_bad_params():
    with pytest.raises(ParameterError) as exc:
        generate_sequential(make_params(theta=150.0))
    assert "theta <= alpha/2" in str(exc.value)


def test_sequential_support_only():
    inst, stats = generate_sequential(GeneratorParams(n=3, d=0, seed=9))
    assert inst.d == 0
    assert inst.m == 7
    assert stats.candidates_drawn == 0
    assert stats.rejected_distance == 0
    assert validate_instance(inst).ok


def test_sequential_deterministic():
    a, sa = generate_sequential(make_params())
    b, sb = generate_sequential(make_params())
    assert a == b
    assert sa.candidates_drawn == sb.candidates_drawn
    assert sa.rejected_distance == sb.rejected_distance
    assert sa.rejected_objective == sb.rejected_objective
    assert sa.rejected_similarity == sb.rejected_similarity


def test_sequential_seed_changes_output():
    a, _ = generate_sequential(make_params(seed=42))
    b, _ = generate_sequential(make_params(seed=43))
    assert a != b


def test_sequential_stats_conservation(demo_params):
    inst, stats = generate_sequential(demo_params)
    assert inst.d == demo_params.d
    assert stats.candidates_drawn == (
        demo_params.d
        + stats.rejected_distance
        + stats.rejected_objective
        + stats.rejected_similarity
    )
    assert stats.coordinator_rejected_similarity == 0
    assert stats.discarded_surplus == 0
    assert stats.rounds == 0
    assert stats.wall_time_ms > 0.0


def test_sequential_output_validates(demo_params):
    inst, _ = generate_sequential(demo_params)
    report = validate_instance(inst)
    assert report.ok, report.violations


# Coefficients below about 1.5e-162 square to 0, so at a_max=1e-161 about
# one draw in seven is a zero-norm row: skipped, never examined, and counted
# toward no tally or stall budget.  At the default a_max the odds are 2^-53.
ZERO_NORM = GeneratorParams(n=1, d=2, seed=3, rho=10.0, s_min=20.0, a_max=1e-161, b_max=1e-157)


def replay_reference(params):
    """One-at-a-time replay using only the public candidate operations."""
    support = list(build_support(params.n, params.alpha))
    c = build_objective(params.n, params.theta)
    h = hypercube_center(params.n, params.alpha)
    stream = derive_stream(params.seed, 0)
    accepted = []
    tallies = {v: 0 for v in CandidateVerdict}
    attempts = 0
    while len(accepted) < params.d:
        q = draw_candidate(stream, params, h)
        verdict = filter_candidate(q, params, h, c, support + accepted)
        tallies[verdict] += 1
        if verdict is CandidateVerdict.ACCEPTED:
            accepted.append(q)
            attempts = 0
        else:
            attempts += 1
            assert attempts < params.max_attempts, "replay stalled"
    return accepted, tallies


@pytest.mark.parametrize(
    "params",
    [
        GeneratorParams(n=2, d=5, seed=42),
        GeneratorParams(n=2, d=3, seed=7, rho=10.0, b_max=100000.0),
        GeneratorParams(n=3, d=4, seed=1),
        # at n=1 the default band and offset threshold leave no admissible
        # offsets at all (everything in (150, 200] is within 100 of the
        # bounding row at 200), so widen the band and tighten the threshold
        GeneratorParams(n=1, d=2, seed=5, rho=10.0, s_min=20.0),
        ZERO_NORM,
    ],
)
def test_sequential_matches_candidate_level_replay(params):
    # the block engine must be indistinguishable from the reference loop:
    # same rows, same byte-for-byte floats, same rejection tallies
    inst, stats = generate_sequential(params)
    accepted, tallies = replay_reference(params)
    assert len(inst.random) == len(accepted)
    for got, want in zip(inst.random, accepted):
        assert np.array_equal(got.a, want.a)
        assert got.b == want.b
    assert stats.rejected_distance == tallies[CandidateVerdict.REJECTED_DISTANCE]
    assert stats.rejected_objective == tallies[CandidateVerdict.REJECTED_OBJECTIVE]
    assert stats.rejected_similarity == tallies[CandidateVerdict.REJECTED_SIMILARITY]
    assert stats.candidates_drawn == sum(tallies.values())


def test_sequential_stall_reports_budget_and_reason():
    params = make_params(max_attempts=50)
    with pytest.raises(GenerationStalledError) as exc:
        generate_sequential(params)
    assert str(exc.value) == (
        "no acceptance within 50 consecutive draws "
        "(dominating reason: rejected_distance)"
    )
    stats = exc.value.stats
    # seed 42 accepts its first row after 4 draws, then hits 50 straight
    # rejections: 54 examined, 1 accepted, 53 rejected
    assert stats.candidates_drawn == 54
    assert stats.rejected_distance == 44
    assert stats.rejected_objective == 9
    assert stats.rejected_similarity == 0
    assert stats.wall_time_ms > 0.0


@pytest.mark.parametrize("engine, workers", [(generate_sequential, 1), (generate_parallel, 3)])
def test_a_huge_d_stalls_without_allocating_for_it(engine, workers):
    # nothing is sized by d before the first draw: the rows accepted so far
    # are all that is stored, so a d of 10**12 ends in a stall at n = 2
    params = GeneratorParams(n=2, d=10**12, max_attempts=2000, workers=workers)
    with pytest.raises(GenerationStalledError) as exc:
        engine(params)
    assert str(exc.value).startswith("no acceptance within 2000 consecutive draws")
    stats = exc.value.stats
    accepted = stats.candidates_drawn - (
        stats.rejected_distance + stats.rejected_objective + stats.rejected_similarity
    )
    assert 0 < accepted < 100


def test_sequential_stall_counters_stay_conserved():
    params = make_params(max_attempts=25)
    with pytest.raises(GenerationStalledError) as exc:
        generate_sequential(params)
    stats = exc.value.stats
    rejected = (
        stats.rejected_distance + stats.rejected_objective + stats.rejected_similarity
    )
    assert stats.candidates_drawn - rejected >= 0
    assert stats.candidates_drawn - rejected < params.d


def test_accepted_rows_differ_across_block_boundaries():
    # the demo run draws a couple hundred thousand candidates, crossing many
    # internal blocks; all accepted rows must stay within the magnitude caps
    # and be mutually distinct
    params = make_params()
    inst, stats = generate_sequential(params)
    assert stats.candidates_drawn > 10_000
    rows = {(*q.a.tolist(), q.b) for q in inst.random}
    assert len(rows) == params.d
    for q in inst.random:
        assert np.all(np.abs(q.a) <= params.a_max)
        assert abs(q.b) <= params.b_max


def dense_bounding_alike(block, a, b, l_max, s_min):
    """The bounding rows stored densely, as the engines once held them, and
    one ``any_alike`` call per row."""
    index = SimilarityIndex.from_inequalities(block.rows(), block.n, l_max, s_min)
    return np.array([index.any_alike(r, v) for r, v in zip(a, b.tolist())], dtype=bool)


ENGINE_CASES = [
    GeneratorParams(n=2, d=5, seed=42),
    GeneratorParams(n=1, d=2, seed=5, rho=10.0, s_min=20.0),
    GeneratorParams(n=3, d=8, seed=11, b_max=100000.0),
    GeneratorParams(n=20, d=60, seed=3, l_max=0.7, s_min=150.0),
    GeneratorParams(n=2, d=5, seed=7, workers=3),
    GeneratorParams(n=20, d=60, seed=4, workers=2, l_max=0.7, s_min=150.0),
]


@pytest.mark.parametrize("params", ENGINE_CASES)
def test_engines_decide_as_with_the_dense_bounding_index(monkeypatch, params):
    engine = generate_parallel if params.workers > 1 else generate_sequential
    inst, stats = engine(params)
    monkeypatch.setattr(generator_module, "bounding_alike", dense_bounding_alike)
    dense_inst, dense_stats = engine(params)
    assert instance_to_text(inst) == instance_to_text(dense_inst)
    assert replace(stats, wall_time_ms=0.0) == replace(dense_stats, wall_time_ms=0.0)
    assert stats.rejected_similarity > 0


@pytest.mark.parametrize("params", ENGINE_CASES[::3])
def test_engines_and_writer_need_no_dense_bounding_index(monkeypatch, params):
    engine = generate_parallel if params.workers > 1 else generate_sequential
    inst, _ = engine(params)
    text = instance_to_text(inst)

    def refuse(cls, *args, **kwargs):
        raise AssertionError("dense bounding index built")

    monkeypatch.setattr(SimilarityIndex, "from_inequalities", classmethod(refuse))
    again, _ = engine(params)
    assert again == inst
    assert instance_to_text(again) == text


@pytest.mark.parametrize("engine, workers", [(generate_sequential, 1), (generate_parallel, 3)])
def test_engines_build_no_dense_bounding_row(monkeypatch, engine, workers):
    params = GeneratorParams(n=5, d=10, seed=1, workers=workers)
    inst, _ = engine(params)

    def refuse(*args, **kwargs):
        raise AssertionError("dense bounding row built")

    monkeypatch.setattr(generator_module, "build_support", refuse)
    monkeypatch.setattr(BoundingBlock, "row", refuse)
    again, _ = engine(params)
    assert again == inst


@pytest.mark.parametrize("s_min", [1.0, 50.0, 99.0, 100.0])
def test_n1_instances_accepted_by_validate_params_validate(s_min):
    inst, _ = generate_sequential(GeneratorParams(n=1, d=0, s_min=s_min))
    assert validate_instance(inst).ok


# Runs with many producer-side similarity rejections: instance text sha256,
# or the stall message, and (candidates_drawn, rejected_distance,
# rejected_objective, rejected_similarity, coordinator_rejected_similarity,
# discarded_surplus, rounds), taken from producers that screened one
# survivor at a time, which the block-wide screen must reproduce.  The
# second and fifth stall exactly at a draw the bounding screen rejects.
SCREEN_PINS = [
    ({'n': 5, 'd': 6, 'seed': 0, 'l_max': 0.7, 's_min': 150.0, 'max_attempts': 5000},
     'a59a199ed24c5a91f880da9a0e651e08deab7aba1424739ff9c23b54627fbd52',
     (6344, 4473, 1689, 176, 0, 0, 0)),
    ({'n': 5, 'd': 6, 'seed': 0, 'l_max': 0.7, 's_min': 150.0, 'max_attempts': 795},
     'no acceptance within 795 consecutive draws (dominating reason: rejected_distance)',
     (1867, 1318, 496, 49, 0, 0, 0)),
    ({'n': 3, 'd': 6, 'seed': 2, 'workers': 3, 'max_attempts': 5000},
     'f8022f7eec1a173bb6a86e0b11f20eb9b3bad747e77777a70bb50f837fc266ea',
     (8259, 6013, 2089, 151, 133, 2, 47)),
    ({'n': 5, 'd': 6, 'seed': 1, 'workers': 3, 'l_max': 0.7, 'max_attempts': 5000},
     '175afad7458eafaab318592c43be2932e2d8684f2958a75b0cc07575e06ed99c',
     (3771, 2661, 1012, 92, 75, 0, 27)),
    ({'n': 3, 'd': 6, 'seed': 0, 'workers': 2, 'l_max': 0.7, 's_min': 150.0, 'max_attempts': 30},
     'no acceptance within 30 consecutive draws (dominating reason: rejected_distance)',
     (30, 21, 8, 1, 0, 0, 1)),
    ({'n': 5, 'd': 30, 'seed': 1, 'workers': 2, 'l_max': 0.7, 's_min': 150.0, 'max_attempts': 20000},
     'no acceptance within 20000 consecutive draws (dominating reason: rejected_distance)',
     (54728, 38730, 14613, 1376, 1157, 0, 584)),
    ({'n': 3, 'd': 20, 'seed': 0, 'max_attempts': 20000},
     'no acceptance within 20000 consecutive draws (dominating reason: rejected_distance)',
     (30053, 21818, 7754, 476, 0, 0, 0)),
    ({'n': 2, 'd': 12, 'seed': 1, 'workers': 3, 'l_max': 0.7, 's_min': 150.0, 'max_attempts': 20000},
     'no acceptance within 20000 consecutive draws (dominating reason: rejected_distance)',
     (30409, 23544, 6716, 148, 4, 0, 2)),
    # stalls in the zero-norm regime of ZERO_NORM
    ({'n': 1, 'd': 2, 'seed': 3, 'rho': 10.0, 's_min': 20.0, 'a_max': 1e-161, 'b_max': 1e-157, 'max_attempts': 500},
     'no acceptance within 500 consecutive draws (dominating reason: rejected_distance)',
     (836, 831, 1, 3, 0, 0, 0)),
    ({'n': 1, 'd': 2, 'seed': 3, 'rho': 10.0, 's_min': 20.0, 'a_max': 1e-161, 'b_max': 1e-157, 'workers': 2, 'max_attempts': 700},
     'no acceptance within 700 consecutive draws (dominating reason: rejected_distance)',
     (700, 699, 1, 0, 0, 0, 1)),
    ({'n': 1, 'd': 2, 'seed': 3, 'rho': 10.0, 's_min': 20.0, 'a_max': 1e-161, 'b_max': 1e-157, 'workers': 3, 'max_attempts': 700},
     'no acceptance within 700 consecutive draws (dominating reason: rejected_distance)',
     (700, 699, 1, 0, 0, 0, 1)),
    # a stall between two survivors of one block, after coordinator
    # rejections: the batch the coordinator judged stops part-way
    ({'n': 2, 'd': 30, 'seed': 0, 'b_max': 1.0, 'rho': 1.0, 'max_attempts': 100},
     'no acceptance within 100 consecutive draws (dominating reason: rejected_distance)',
     (102, 49, 38, 14, 0, 0, 0)),
    # the d-th acceptance falls mid-batch and mid-round
    ({'n': 20, 'd': 100, 'seed': 0, 'workers': 8},
     '0012dd4df789c73b3dae21b4031b9ea006f2677f1ede3d623afa863735ef56cc',
     (4289, 3031, 1158, 0, 0, 4, 13)),
    ({'n': 5, 'd': 20, 'seed': 1, 'workers': 8},
     '74880a7cd756f761baa10c1f224270a8585be6b7928141717e08ae9d7617af9a',
     (1547, 1120, 384, 23, 23, 5, 6)),
]


@pytest.mark.parametrize("kwargs, outcome, counters", SCREEN_PINS)
def test_runs_with_many_screen_rejections_are_pinned(kwargs, outcome, counters):
    params = GeneratorParams(**kwargs)
    engine = generate_parallel if params.workers > 1 else generate_sequential
    try:
        inst, stats = engine(params)
        got = hashlib.sha256(instance_to_text(inst).encode()).hexdigest()
    except GenerationStalledError as err:
        stats, got = err.stats, str(err)
    assert got == outcome
    assert astuple(stats)[:7] == counters


def test_zero_norm_draws_are_common_at_a_tiny_a_max():
    words = derive_stream(3, 0).raw_words(4 * 4000).reshape(4000, 4)
    a = ZERO_NORM.a_max * words_to_units(words[:, 2:3])
    assert int(np.count_nonzero(row_sumsq(a) == 0.0)) == 613


def former_word_map(sign_words, unit_words, r):
    """The word map as rng's int64 signs and clipped ``scale_units`` onto
    [0, r] defined it."""
    signs = 1 - 2 * (sign_words & np.uint64(1)).astype(np.int64)
    units = (unit_words >> np.uint64(11)) / float(2**53 - 1)
    return signs * np.clip(0.0 + r * units, 0.0, r)


# words whose unit (w >> 11) is 0 or 2**53 - 1, each with either low bit
EDGE_WORDS = [0, 1, 2, 3, UNIT_WORD[1], UNIT_WORD[1] | 1, 2**64 - 2, 2**64 - 1]


@pytest.mark.parametrize("r", [1000.0, 10000.0, 1e-160, 1e300, 5e-324, np.finfo(float).max])
def test_candidate_rows_equal_the_former_word_map_bitwise(r):
    n = 3
    params = GeneratorParams(n=n, a_max=r, b_max=r)
    # every edge sign word against every edge unit word, then random words
    edges = np.array([[s] * (n + 1) + [u] * (n + 1) for s in EDGE_WORDS for u in EDGE_WORDS],
                     dtype=np.uint64)
    drawn = derive_stream(5, 0).raw_words(64 * (2 * n + 2)).reshape(64, -1)
    words = np.concatenate([edges, drawn])
    a, b = _candidate_rows(words, params)
    want = former_word_map(words[:, : n + 1], words[:, n + 1 :], r)
    assert np.array_equal(a.view(np.uint64), want[:, :n].view(np.uint64))
    assert np.array_equal(b.view(np.uint64), want[:, n].view(np.uint64))
    # the edge words give both zeros and both ends
    ends = np.array([0.0, -0.0, r, -r]).view(np.uint64)
    assert set(ends.tolist()) <= set(a[: len(edges)].view(np.uint64).ravel().tolist())
    for k in range(len(words)):
        ak, bk = _candidate_rows(words[k], params)
        assert np.array_equal(ak.view(np.uint64), a[k].view(np.uint64))
        assert np.float64(bk).view(np.uint64) == b[k].view(np.uint64)


@pytest.mark.parametrize("n", [1, 2, 20, 400])
def test_center_terms_agree_bitwise_for_a_row_and_its_negation(n):
    # the producer decides distance and objective fates before it flips a
    # row, so (a, b) and (-a, -b) must give the same distance and the same
    # projection h - t*a, bit for bit
    params = GeneratorParams(n=n)
    edges = np.array([[s] * (n + 1) + [u] * (n + 1) for s in EDGE_WORDS for u in EDGE_WORDS],
                     dtype=np.uint64)
    drawn = derive_stream(7, 0).raw_words(64 * (2 * n + 2)).reshape(64, -1)
    a, b = _candidate_rows(np.concatenate([edges, drawn]), params)
    h = hypercube_center(n, params.alpha)
    b[-1] = row_dots(a[-1], h)  # a hyperplane through the center
    got = []
    for rows, rhs in ((a, b), (-a, -b)):
        _, _, dist, t = center_terms(rows, rhs, h)
        got.append((dist.view(np.uint64), (h - t[:, None] * rows).view(np.uint64)))
    assert np.array_equal(got[0][0], got[1][0])
    assert np.array_equal(got[0][1], got[1][1])
    assert got[0][0][-1] == 0  # +0.0
