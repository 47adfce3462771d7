import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from randlp import (
    CandidateVerdict,
    GenerationStalledError,
    GenerationStats,
    GeneratorParams,
    ParameterError,
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
from randlp.generator import _Producer

from conftest import instance_from_rows, make_params


def test_parallel_deterministic_for_seed_and_worker_count():
    params = make_params(workers=4)
    a, sa = generate_parallel(params)
    b, sb = generate_parallel(params)
    assert a == b
    assert sa.candidates_drawn == sb.candidates_drawn
    assert sa.rounds == sb.rounds
    assert sa.coordinator_rejected_similarity == sb.coordinator_rejected_similarity
    assert sa.discarded_surplus == sb.discarded_surplus


def test_parallel_output_depends_on_worker_count():
    # worker streams are keyed by worker id, so L enters the output
    a, _ = generate_parallel(make_params(workers=2))
    b, _ = generate_parallel(make_params(workers=3))
    assert a != b


def test_the_sequential_engine_records_its_one_worker():
    # one worker on stream 0 ran, whatever params.workers says
    inst, stats = generate_sequential(GeneratorParams(n=3, d=2, workers=4))
    assert inst.params.workers == 1
    one, one_stats = generate_parallel(GeneratorParams(n=3, d=2, workers=1))
    assert inst == one and one.params == inst.params
    assert replace(stats, wall_time_ms=0.0) == replace(one_stats, wall_time_ms=0.0)
    # the recorded count is set after the check, which still refuses 0
    with pytest.raises(ParameterError, match="workers >= 1"):
        generate_sequential(GeneratorParams(n=3, d=2, workers=0))


def test_parallel_support_only_runs_no_rounds():
    inst, stats = generate_parallel(GeneratorParams(n=2, d=0, seed=1, workers=4))
    assert inst.d == 0
    assert stats.rounds == 0
    assert stats.candidates_drawn == 0
    assert stats.discarded_surplus == 0


def test_parallel_round_lower_bound():
    # 8 workers contribute at most 8 acceptances per round, so 20 rows need
    # at least ceil(20/8) = 3 rounds
    params = GeneratorParams(n=10, d=20, seed=42, workers=8)
    inst, stats = generate_parallel(params)
    assert inst.d == 20
    assert stats.rounds >= math.ceil(params.d / params.workers)


def test_parallel_output_validates():
    inst, _ = generate_parallel(make_params(workers=4))
    report = validate_instance(inst)
    assert report.ok, report.violations


@pytest.mark.parametrize("workers", [2, 4, 7])
def test_parallel_stats_identities(workers):
    params = make_params(seed=7, workers=workers)
    inst, stats = generate_parallel(params)
    assert inst.d == params.d
    # every fate-assigned draw is accounted for once
    assert stats.candidates_drawn == (
        params.d
        + stats.rejected_distance
        + stats.rejected_objective
        + stats.rejected_similarity
    )
    # every submission of every round is accounted for once
    assert stats.rounds * workers == (
        params.d + stats.coordinator_rejected_similarity + stats.discarded_surplus
    )
    assert stats.coordinator_rejected_similarity <= stats.rejected_similarity


def test_parallel_rows_satisfy_same_conditions_as_sequential():
    # both engines enforce identical per-row conditions; the validator is the
    # shared referee
    seq, _ = generate_sequential(make_params())
    par, _ = generate_parallel(make_params(workers=3))
    assert validate_instance(seq).ok
    assert validate_instance(par).ok
    assert seq.support == par.support
    assert np.array_equal(seq.c, par.c)


def test_parallel_worker_stall_propagates():
    params = make_params(max_attempts=50, workers=4)
    with pytest.raises(GenerationStalledError) as exc:
        generate_parallel(params)
    assert "no acceptance within" in str(exc.value)
    stats = exc.value.stats
    rejected = (
        stats.rejected_distance + stats.rejected_objective + stats.rejected_similarity
    )
    # at the stall cut, every examined draw still has exactly one fate
    accepted = stats.candidates_drawn - rejected
    assert 0 <= accepted < params.d + params.workers


def test_parallel_stall_budget_counts_draws_over_all_workers():
    # worker 1's stream opens with 50 straight rejections; one budget covers
    # every worker, so the run stops at that 50th draw
    params = make_params(workers=4, max_attempts=50)
    with pytest.raises(GenerationStalledError) as exc:
        generate_parallel(params)
    assert str(exc.value) == (
        "no acceptance within 50 consecutive draws "
        "(dominating reason: rejected_distance)"
    )
    stats = exc.value.stats
    assert stats.candidates_drawn == 50
    assert stats.rejected_distance == 33
    assert stats.rejected_objective == 17
    assert stats.rejected_similarity == 0
    assert stats.rounds == 1


def test_parallel_stall_at_a_coordinator_rejection():
    # with b_max=1 every offset is near 0 and the survivors crowd into one
    # cone: worker 1's first submission is accepted after 4 draws, and the
    # coordinator rejects the submissions of workers 2 and 3 as alike to it,
    # the second of them being the 20th draw since that acceptance
    params = make_params(workers=4, max_attempts=20, b_max=1.0, rho=1.0)
    with pytest.raises(GenerationStalledError) as exc:
        generate_parallel(params)
    assert str(exc.value) == (
        "no acceptance within 20 consecutive draws "
        "(dominating reason: rejected_distance)"
    )
    stats = exc.value.stats
    assert stats.candidates_drawn == 24
    assert stats.rejected_distance == 11
    assert stats.rejected_objective == 10
    assert stats.rejected_similarity == stats.coordinator_rejected_similarity == 2
    assert stats.discarded_surplus == 0
    assert stats.rounds == 1


def test_parallel_starts_no_thread(monkeypatch):
    params = make_params(workers=4)
    want = instance_to_text(generate_parallel(params)[0])

    def refuse(self):
        raise AssertionError("thread started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert instance_to_text(generate_parallel(params)[0]) == want


def test_parallel_stops_stepping_producers_once_d_rows_are_accepted():
    # worker 1's first submission is the one row asked for; workers 2-8 are
    # the round's surplus and draw nothing, so their rejections cannot run
    # the budget out after the instance is complete
    params = GeneratorParams(n=2, d=1, seed=1, workers=8, max_attempts=100)
    inst, stats = generate_parallel(params)
    assert inst.d == 1
    assert stats.rounds == 1
    assert stats.discarded_surplus == 7
    assert stats.candidates_drawn == 79
    assert stats.candidates_drawn == (
        1 + stats.rejected_distance + stats.rejected_objective + stats.rejected_similarity
    )
    assert stats.rounds * params.workers == 1 + stats.coordinator_rejected_similarity + stats.discarded_surplus
    assert validate_instance(inst).ok


def round_replay(params):
    """The round protocol of L >= 2 workers, one candidate at a time, from
    the public operations only: the instance text, or the stall message,
    and the stats without wall_time_ms.

    Each round steps workers 1..L in order.  A worker draws from its stream
    until a candidate passes ``filter_candidate`` against the bounding rows;
    the coordinator then judges it with ``filter_candidate`` against the
    accepted rows.  One budget of max_attempts draws since the last
    acceptance covers every worker in stepping order; once d rows are
    accepted, the workers not yet stepped in that round are the surplus.
    """
    n, L, budget = params.n, params.workers, params.max_attempts
    support = build_support(n, params.alpha)
    c = build_objective(n, params.theta)
    h = hypercube_center(n, params.alpha)
    streams = [derive_stream(params.seed, l) for l in range(1, L + 1)]
    accepted = []
    fates = dict.fromkeys(CandidateVerdict, 0)  # the workers' rejections
    coord_rej = steps = attempts = 0

    def outcome(done):
        stats = GenerationStats(
            candidates_drawn=sum(fates.values()) + coord_rej + len(accepted),
            rejected_distance=fates[CandidateVerdict.REJECTED_DISTANCE],
            rejected_objective=fates[CandidateVerdict.REJECTED_OBJECTIVE],
            rejected_similarity=fates[CandidateVerdict.REJECTED_SIMILARITY] + coord_rej,
            coordinator_rejected_similarity=coord_rej,
            discarded_surplus=-steps % L if done else 0,
            rounds=-(-steps // L),
        )
        if done:
            inst = instance_from_rows(n=n, support=support, random=accepted, c=c, params=params)
            return instance_to_text(inst), stats
        counts = {"rejected_distance": stats.rejected_distance,
                  "rejected_objective": stats.rejected_objective,
                  "rejected_similarity": stats.rejected_similarity}
        reason = max(counts, key=counts.get)
        return (f"no acceptance within {budget} consecutive draws "
                f"(dominating reason: {reason})"), stats

    while len(accepted) < params.d:
        stream = streams[steps % L]
        steps += 1
        while True:
            if attempts == budget:
                return outcome(False)
            q = draw_candidate(stream, params, h)
            attempts += 1
            verdict = filter_candidate(q, params, h, c, support)
            if verdict is CandidateVerdict.ACCEPTED:
                break
            fates[verdict] += 1
        if filter_candidate(q, params, h, c, accepted) is CandidateVerdict.ACCEPTED:
            accepted.append(q)
            attempts = 0
        else:
            coord_rej += 1
            if attempts == budget:
                return outcome(False)
    return outcome(True)


@pytest.mark.parametrize("params", [
    # the two stalls above: at a worker's rejection, at a coordinator's
    make_params(workers=4, max_attempts=50),
    make_params(workers=4, max_attempts=20, b_max=1.0, rho=1.0),
    # the same coordinator stall on the last submission of a round
    make_params(workers=3, max_attempts=20, b_max=1.0, rho=1.0),
    # seven surplus workers in the one round
    GeneratorParams(n=2, d=1, seed=1, workers=8, max_attempts=100),
    # more workers than the coordinator judges in one batch, with full
    # batches of 64: complete with coordinator rejections and surplus, and
    # a stall in the fifth round
    GeneratorParams(n=10, d=300, seed=3, workers=70, rho=1.0, b_max=1000.0),
    GeneratorParams(n=10, d=300, seed=3, workers=70, rho=1.0, b_max=1000.0, l_max=0.7,
                    max_attempts=150),
])
def test_parallel_matches_round_level_replay(params):
    try:
        inst, stats = generate_parallel(params)
        got = instance_to_text(inst)
    except GenerationStalledError as exc:
        got, stats = str(exc), exc.stats
    assert (got, replace(stats, wall_time_ms=0.0)) == round_replay(params)


def test_a_batch_looks_at_no_more_producers_than_it_can_hold(monkeypatch):
    # a batch holds at most 64 submissions, so only the next 64 producers
    # can bound it: the cost of a batch must not grow with L
    calls = []
    pending = _Producer.pending

    def counted(self):
        calls.append(None)
        return pending(self)

    monkeypatch.setattr(_Producer, "pending", counted)
    params = GeneratorParams(n=10, d=1000, seed=0, workers=1000)
    inst, _ = generate_parallel(params)
    assert inst.d == 1000
    assert len(calls) < 100 * params.workers
