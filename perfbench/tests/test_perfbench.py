"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def report_of(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-2].removeprefix("report "))


# --- self-time arithmetic ---------------------------------------------------------


def test_self_time_subtracts_each_covered_instant_once():
    assert spans.self_time(0.0, 10.0, []) == 10.0
    assert spans.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # nested and overlapping children
    assert spans.self_time(0.0, 10.0, [(4.0, 7.0), (1.0, 5.0), (2.0, 3.0)]) == 4.0
    # children sticking out of the parent count only inside it
    assert spans.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0


def test_generator_self_time_subtracts_only_children_on_the_callers_thread():
    caller, pool = 1, 2
    recorded = [
        # (id, name, start, end, thread, parent, instance, work)
        (2, "geometry.any_alike", 1.0, 4.0, caller, 1, 0, (12, 5)),
        (3, "geometry.any_alike", 0.5, 9.0, pool, 1, 0, (5, 5)),
        (4, "geometry.any_alike", 6.0, 8.0, caller, 1, 0, (30, 0)),
        (1, "generator", 0.0, 10.0, caller, None, 0, None),
    ]
    m = spans.layer_metrics(recorded)
    assert m["generator.busy_s"] == 10.0
    assert m["generator.self_s"] == 5.0
    assert m["geometry.any_alike.calls"] == 3
    assert m["geometry.rows_compared.bounding"] == 10
    assert m["geometry.rows_compared.accepted"] == 7 + 30
    assert m["geometry.any_alike.busy_s.bounding"] == 3.0 + 8.5
    assert m["geometry.any_alike.busy_s.accepted"] == 2.0


def test_tracer_uninstall_restores_the_library():
    rl = run.load_randlp()
    before = (rl.RngStream.raw_words, rl.SimilarityIndex.any_alike,
              vars(rl.SimilarityIndex)["from_inequalities"], rl.validator.likeness)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert rl.RngStream.raw_words is not before[0]
    finally:
        tracer.uninstall()
    after = (rl.RngStream.raw_words, rl.SimilarityIndex.any_alike,
             vars(rl.SimilarityIndex)["from_inequalities"], rl.validator.likeness)
    assert after == before


# --- failure counting -------------------------------------------------------------


def test_stalls_count_as_failed_instances(monkeypatch):
    # A budget of 50000 draws per acceptance stalls packed at some of the
    # seeds 0..11 only.
    monkeypatch.setitem(run.WORKLOADS, "packed", replace(run.WORKLOADS["packed"], gate=12))
    monkeypatch.setattr(run.Workload, "params", lambda self, rl, seed: rl.GeneratorParams(
        n=self.n, d=self.d, seed=seed, workers=self.workers, max_attempts=50_000))
    result, report = run.run_end_to_end(run.load_randlp(), "packed", 0, 0.0, {})
    stalls = [f for f in report["failures"] if "stalled" in f]
    assert result["attempted"] == 12
    assert 0 < result["failed"] < 12
    assert len(stalls) == min(result["failed"], 5)
    assert report["failed_frac"] == result["failed"] / 12
    assert result["correct"]  # a stall is a failure, not a wrong output


def test_pinned_digest_mismatch_is_a_failed_instance_never_dropped():
    result, report = run.run_end_to_end(run.load_randlp(), "packed", 0, 0.0, {3: "0" * 64})
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["attempted"] == run.WORKLOADS["packed"].gate
    assert report["sha256"]["pinned"] == "mismatch"
    assert "seed 3: sha256" in report["failures"][0]


def test_each_gate_is_checked():
    rl = run.load_randlp()
    wl = run.WORKLOADS["packed"]
    inst, stats = rl.generate_sequential(wl.params(rl, 0))
    ok = rl.validate_instance(inst)
    assert run.check_instance(wl, inst, stats, inst, ok, "x", "x") == ""
    bad = rl.ValidationReport(False, (rl.Violation(0, "made up", 1, 0),))
    assert "validate_instance" in run.check_instance(wl, inst, stats, inst, bad, "x", None)
    other, _ = rl.generate_sequential(wl.params(rl, 1))
    assert "read_instance" in run.check_instance(wl, inst, stats, other, ok, "x", None)
    off = replace(stats, candidates_drawn=stats.candidates_drawn + 1)
    assert "stats identity" in run.check_instance(wl, inst, off, inst, ok, "x", None)
    par = replace(wl, workers=2)
    assert "rounds * workers" in run.check_instance(par, inst, stats, inst, ok, "x", None)
    assert "sha256" in run.check_instance(wl, inst, stats, inst, ok, "x", "y")


# --- short runs of each workload, through the command line ----------------------------


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_short_untraced_run_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.WORKLOADS[workload].gate
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = report_of(proc)
    assert report["sha256"]["pinned"].startswith("match")
    assert report["env"]["nproc"] >= 1


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_short_traced_run_reports_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER_UNITS
    assert metrics["generator.candidates"] > 0
    assert metrics["geometry.any_alike.calls"] > 0
    if workload == "tall-par":
        assert metrics["generator.rounds"] > 0
        assert metrics["geometry.rows_compared.accepted"] > 10 * metrics["geometry.rows_compared.bounding"]


def test_traced_counts_repeat_exactly_between_runs():
    counts = []
    for _ in range(2):
        proc = bench("--workload", "packed", "--seed", "5", "--seconds", "0", "--trace", "1")
        metrics = {k: v["value"] for k, v in result_of(proc)["metrics"].items()}
        metrics.update(report_of(proc)["other_metrics"])
        counts.append({k: metrics[k] for k in run.COUNTS})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = bench("--workload", "packed", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
