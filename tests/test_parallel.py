import math
import threading

import numpy as np
import pytest

from randlp import (
    GenerationStalledError,
    GeneratorParams,
    generate_parallel,
    generate_sequential,
    instance_to_text,
    validate_instance,
)

from conftest import make_params


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


def test_parallel_one_worker_repeatable():
    # seed 7: its single-worker stream fills d=5 well inside the draw budget
    params = make_params(seed=7, workers=1)
    a, _ = generate_parallel(params)
    b, _ = generate_parallel(params)
    assert a == b


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


def test_parallel_single_worker_matches_own_replay():
    # L=1 must stay deterministic and satisfy all identities on a heavier run
    params = GeneratorParams(n=3, d=8, seed=11, workers=1, b_max=100000.0)
    a, sa = generate_parallel(params)
    b, sb = generate_parallel(params)
    assert a == b
    assert sa.candidates_drawn == sb.candidates_drawn
    assert validate_instance(a).ok


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
