"""Acceptance gate: ten end-to-end checks, one PASS/FAIL line each.

Criteria 3, 4 and 10 share one batch of generated instances (100 seeds, both
engines, n=10 d=20 at the standard parameters), so the condition suite is
built once and examined three ways.
"""
import os
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import numpy as np

from randlp import (
    GeneratorParams,
    Inequality,
    build_objective,
    build_support,
    derive_stream,
    generate_parallel,
    generate_sequential,
    likeness,
    objective_value,
    render_svg,
    run_benchmark,
    run_cli,
    support_only_solution,
    validate_instance,
    verify_support_solution,
)
from randlp.rng import words_to_units

from conftest import instance_from_rows, with_rows


@contextmanager
def criterion(num, label):
    note = {"suffix": ""}
    try:
        yield note
    except BaseException:
        print(f"\nFAIL criterion {num}: {label}{note['suffix']}")
        raise
    print(f"\nPASS criterion {num}: {label}{note['suffix']}")


_SUITE: dict = {}


def condition_suite():
    """100 seeds x {sequential, parallel(4)} at n=10, d=20, defaults."""
    if not _SUITE:
        t0 = time.perf_counter()
        instances = []
        for seed in range(100):
            inst, _ = generate_sequential(GeneratorParams(n=10, d=20, seed=seed))
            instances.append(inst)
            inst, _ = generate_parallel(
                GeneratorParams(n=10, d=20, seed=seed, workers=4)
            )
            instances.append(inst)
        _SUITE["instances"] = instances
        _SUITE["build_seconds"] = time.perf_counter() - t0
    return _SUITE


def test_criterion_01_support_exactness():
    with criterion(1, "bounding system bit-exact; m = 2n+1+d") as note:
        t0 = time.perf_counter()
        for n in (1, 2, 10, 100):
            rows = build_support(n, 200.0)
            assert len(rows) == 2 * n + 1
            expected = []
            for j in range(n):
                a = np.zeros(n)
                a[j] = 1.0
                expected.append((a, 200.0))
            for j in range(n):
                a = np.zeros(n)
                a[j] = -1.0
                expected.append((a, 0.0))
            expected.append((np.ones(n), (n - 1) * 200.0 + 100.0))
            for got, (a, b) in zip(rows, expected):
                assert got.a.tobytes() == a.tobytes()
                assert np.float64(got.b).tobytes() == np.float64(b).tobytes()
            c = build_objective(n, 100.0)
            for d in (0, 5, 50):
                extra = tuple(
                    Inequality(np.ones(n), 1e6 + i) for i in range(d)
                )
                inst = instance_from_rows(
                    n=n,
                    support=tuple(rows),
                    random=extra,
                    c=c,
                    params=GeneratorParams(n=n, d=d),
                )
                assert inst.m == 2 * n + 1 + d
        elapsed = time.perf_counter() - t0
        note["suffix"] = f" ({elapsed:.2f}s)"
        assert elapsed < 1.0


def test_criterion_02_known_solution_oracle():
    with criterion(
        2, "vertex enumeration confirms the closed-form optimum and its values"
    ) as note:
        t0 = time.perf_counter()
        expected = {1: 10000.0, 2: 50000.0, 3: 110000.0}
        for n, want in expected.items():
            assert verify_support_solution(n, 200.0, 100.0)
            got = objective_value(
                build_objective(n, 100.0), support_only_solution(n, 200.0)
            )
            assert abs(got - want) <= 1e-9
        elapsed = time.perf_counter() - t0
        note["suffix"] = f" ({elapsed:.2f}s)"
        assert elapsed < 1.0


def test_criterion_03_condition_suite():
    with criterion(
        3, "every instance over 100 seeds and both engines validates clean"
    ) as note:
        suite = condition_suite()
        t0 = time.perf_counter()
        for inst in suite["instances"]:
            report = validate_instance(inst)
            assert report.ok, report.violations
        elapsed = suite["build_seconds"] + time.perf_counter() - t0
        note["suffix"] = f" ({len(suite['instances'])} instances, {elapsed:.1f}s)"
        assert elapsed < 120.0


def test_criterion_04_pairwise_dissimilarity():
    with criterion(
        4, "no pair among all m constraints of any instance is alike"
    ) as note:
        suite = condition_suite()
        pairs = 0
        for inst in suite["instances"]:
            rows = inst.constraints
            p = inst.params
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    assert not likeness(rows[i], rows[j], p.l_max, p.s_min)
                    pairs += 1
        note["suffix"] = f" ({pairs} pairs)"


def test_criterion_05_direction_gap_identity():
    with criterion(
        5, "unit-vector gap equals sqrt(2(1-cos phi)) within 1e-12 on 10^4 angles"
    ) as note:
        t0 = time.perf_counter()
        s = derive_stream(0, 0)
        lo, hi = 1e-9, np.pi - 1e-9
        phi = lo + (hi - lo) * words_to_units(s.raw_words(10_000))
        beta = 2.0 * np.pi * words_to_units(s.raw_words(10_000))
        e1 = np.stack([np.cos(beta), np.sin(beta)], axis=1)
        e2 = np.stack([np.cos(beta + phi), np.sin(beta + phi)], axis=1)
        gap = np.sqrt(((e1 - e2) ** 2).sum(axis=1))
        as_written = np.sqrt(2.0 * (1.0 - np.cos(phi)))
        half_angle = 2.0 * np.sin(phi / 2.0)  # same quantity, stable near 0
        worst = float(np.abs(gap - as_written).max())
        assert worst <= 1e-12
        assert float(np.abs(gap - half_angle).max()) <= 1e-12
        elapsed = time.perf_counter() - t0
        note["suffix"] = f" (worst gap {worst:.1e}, {elapsed:.2f}s)"
        assert elapsed < 1.0


def test_criterion_06_cli_determinism(tmp_path):
    with criterion(
        6, "gen twice with one flag set is byte-identical; new seed, new file"
    ) as note:
        t0 = time.perf_counter()
        args = ["gen", "--n", "10", "--d", "20", "--workers", "4"]
        a, b, c = (tmp_path / name for name in ("a.txt", "b.txt", "c.txt"))
        assert run_cli(args + ["--seed", "42", "--out", str(a)]) == 0
        assert run_cli(args + ["--seed", "42", "--out", str(b)]) == 0
        assert run_cli(args + ["--seed", "43", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()
        elapsed = time.perf_counter() - t0
        note["suffix"] = f" ({elapsed:.1f}s)"
        assert elapsed < 30.0


def test_criterion_07_worker_scaling():
    cores = len(os.sched_getaffinity(0))
    with criterion(7, "thread-scaling harness at n=1000, d=200, workers 1 vs 8") as note:
        t0 = time.perf_counter()
        results = run_benchmark(
            GeneratorParams(n=1000, d=200, seed=42), [1, 8], repetitions=3
        )
        med = {r.worker_count: r.wall_time_ms for r in results}
        elapsed = time.perf_counter() - t0
        if cores >= 8:
            note["suffix"] = (
                f" (medians {med[1]:.0f}ms -> {med[8]:.0f}ms on {cores} cores,"
                f" {elapsed:.1f}s)"
            )
            assert med[8] <= 0.6 * med[1]
        else:
            note["suffix"] = (
                f" (medians {med[1]:.0f}ms -> {med[8]:.0f}ms; the 0.6x bound"
                f" applies on >= 8 cores, this machine has {cores},"
                f" bound not assessable here; {elapsed:.1f}s)"
            )
        assert elapsed < 600.0


def test_criterion_08_rejection_profile():
    with criterion(
        8, "aggregate rejections over 20 seeds: distance > objective > similarity"
    ) as note:
        t0 = time.perf_counter()
        by_distance = by_objective = by_similarity = 0
        for seed in range(20):
            _, stats = generate_sequential(GeneratorParams(n=2, d=5, seed=seed))
            by_distance += stats.rejected_distance
            by_objective += stats.rejected_objective
            by_similarity += stats.rejected_similarity
        note["suffix"] = f" ({by_distance} > {by_objective} > {by_similarity})"
        assert by_distance > by_objective > by_similarity
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0


def test_criterion_09_picture_reproduction():
    with criterion(
        9, "2-D render: dashed circles 50/100, 5+5 lines, polygon, band distances"
    ) as note:
        t0 = time.perf_counter()
        inst, _ = generate_sequential(GeneratorParams(n=2, d=5, seed=42))
        root = ET.fromstring(render_svg(inst))

        def named(kind):
            return [el for el in root.iter() if el.tag.split("}")[-1] == kind]

        circles = named("circle")
        assert len(circles) == 2
        assert {float(c.get("r")) for c in circles} == {50.0, 100.0}
        assert all(c.get("stroke-dasharray") for c in circles)

        lines = named("line")
        support = [el for el in lines if el.get("class") == "support"]
        random = [el for el in lines if el.get("class") == "random"]
        assert len(support) == 5
        assert len(random) == 5
        assert len(named("polygon")) == 1

        center = np.array([100.0, 100.0])
        for el in random:
            p1 = np.array([float(el.get("x1")), float(el.get("y1"))])
            p2 = np.array([float(el.get("x2")), float(el.get("y2"))])
            direction = p2 - p1
            normal = np.array([-direction[1], direction[0]])
            normal /= np.linalg.norm(normal)
            dist = abs(float(normal @ (center - p1)))
            assert 50.0 < dist <= 100.0 + 1e-6
        elapsed = time.perf_counter() - t0
        note["suffix"] = f" ({elapsed:.2f}s)"
        assert elapsed < 5.0


def test_criterion_10_tamper_sensitivity():
    with criterion(
        10, "sign-flipping any accepted row trips the center-feasibility check"
    ) as note:
        suite = condition_suite()
        flips = 0
        for inst in suite["instances"]:
            base = 2 * inst.n + 1
            for i, q in enumerate(inst.random):
                flipped = Inequality(-q.a, -q.b)
                bad = with_rows(
                    inst,
                    random=inst.random[:i] + (flipped,) + inst.random[i + 1 :],
                )
                report = validate_instance(bad)
                assert not report.ok
                assert any(
                    v.constraint == base + i
                    and v.condition == "center feasibility a.h <= b"
                    for v in report.violations
                )
                flips += 1
        note["suffix"] = f" ({flips} single-row flips)"
