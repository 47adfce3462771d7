import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from randlp import (
    GeneratorParams,
    Inequality,
    UnsupportedDimensionError,
    build_objective,
    build_support,
    distance_to_center,
    generate_parallel,
    generate_sequential,
    likeness,
    objective_value,
    project_center,
    support_only_solution,
    validate_instance,
    verify_support_solution,
)
from randlp import validator
from randlp.geometry import hypercube_center, row_dots, row_norms

from conftest import make_params


@pytest.fixture(scope="module")
def demo_instance():
    inst, _ = generate_sequential(GeneratorParams(n=2, d=5, seed=42))
    return inst


def conditions(report):
    return [v.condition for v in report.violations]


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_support_only_instances_validate(n):
    inst, _ = generate_sequential(GeneratorParams(n=n, d=0, seed=0))
    report = validate_instance(inst)
    assert report.ok
    assert report.violations == ()


def test_generated_instance_validates(demo_instance):
    report = validate_instance(demo_instance)
    assert report.ok, report.violations


def test_duplicate_random_row_flagged_alike(demo_instance):
    dup = demo_instance.random[0]
    bad = replace(demo_instance, random=demo_instance.random + (dup,))
    report = validate_instance(bad)
    assert not report.ok
    alike = [v for v in report.violations if v.condition.startswith("alike with")]
    assert len(alike) == 1
    # the duplicate sits at the end of the system and names its twin
    assert alike[0].constraint == bad.m - 1
    first_random = 2 * bad.n + 1
    assert f"constraint {first_random}" in alike[0].condition


def test_pulled_in_row_breaks_feasibility_or_band(demo_instance):
    q = demo_instance.random[0]
    norm = float(np.linalg.norm(q.a))
    theta = demo_instance.params.theta
    bad_row = Inequality(q.a, q.b - 2 * theta * norm)
    bad = replace(demo_instance, random=(bad_row,) + demo_instance.random[1:])
    report = validate_instance(bad)
    assert not report.ok
    conds = conditions(report)
    assert any(
        c in ("center feasibility a.h <= b", "distance > rho") for c in conds
    )


def test_sign_flipped_row_breaks_center_feasibility(demo_instance):
    q = demo_instance.random[2]
    flipped = Inequality(-q.a, -q.b)
    bad = replace(
        demo_instance,
        random=demo_instance.random[:2] + (flipped,) + demo_instance.random[3:],
    )
    report = validate_instance(bad)
    assert not report.ok
    assert "center feasibility a.h <= b" in conditions(report)


def test_tampered_support_row_is_exact_mismatch(demo_instance):
    rows = list(demo_instance.support)
    rows[0] = Inequality(rows[0].a, rows[0].b + 1e-12)
    bad = replace(demo_instance, support=tuple(rows))
    report = validate_instance(bad)
    assert not report.ok
    assert "bounding row mismatch" in conditions(report)


def test_tampered_objective_is_exact_mismatch(demo_instance):
    bad = replace(demo_instance, c=demo_instance.c * (1.0 + 1e-15))
    report = validate_instance(bad)
    assert not report.ok
    assert "objective row mismatch" in conditions(report)


def test_zero_norm_row_flagged(demo_instance):
    zero = Inequality(np.zeros(2), 5.0)
    bad = replace(demo_instance, random=demo_instance.random + (zero,))
    report = validate_instance(bad)
    assert not report.ok
    assert "nonzero coefficient norm" in conditions(report)


def test_wrong_support_count_is_structural(demo_instance):
    bad = replace(demo_instance, support=demo_instance.support[:-1])
    report = validate_instance(bad)
    assert not report.ok
    assert any(v.constraint == -1 for v in report.violations)
    assert "support row count" in conditions(report)


def test_nonimproving_row_flagged(demo_instance):
    # distance 80 is fine but the projection scores 14000 < 30000
    bad_row = Inequality([-1.0, 0.0], -20.0)
    bad = replace(demo_instance, random=demo_instance.random + (bad_row,))
    report = validate_instance(bad)
    assert not report.ok
    assert "objective improvement at projection" in conditions(report)


def test_distance_exactly_rho_is_too_close(demo_instance):
    # integer arithmetic: distance from (100,100) to x <= 150 is exactly 50
    bad_row = Inequality([1.0, 0.0], 150.0)
    bad = replace(demo_instance, random=demo_instance.random + (bad_row,))
    report = validate_instance(bad)
    assert not report.ok
    assert "distance > rho" in conditions(report)


def test_distance_exactly_theta_is_allowed(demo_instance):
    # x <= 200 sits exactly at distance theta; the band holds, only the
    # likeness to the matching bounding row trips
    edge_row = Inequality([1.0, 0.0], 200.0)
    bad = replace(demo_instance, random=demo_instance.random + (edge_row,))
    report = validate_instance(bad)
    conds = conditions(report)
    assert "distance > rho" not in conds
    assert "distance <= theta" not in conds
    assert any(c.startswith("alike with") for c in conds)


def test_distance_within_write_noise_is_allowed(demo_instance):
    # just past theta but inside the 1e-9 relative slack reserved for
    # serialization noise on the non-strict bound
    ang = 0.3
    a = np.array([np.cos(ang), np.sin(ang)])
    ah = float(a @ np.array([100.0, 100.0]))
    edge_row = Inequality(a, ah + 100.0 + 4e-8)
    ok = replace(demo_instance, random=demo_instance.random + (edge_row,))
    report = validate_instance(ok)
    assert "distance <= theta" not in conditions(report)

    far_row = Inequality(a, ah + 100.001)
    bad = replace(demo_instance, random=demo_instance.random + (far_row,))
    assert "distance <= theta" in conditions(validate_instance(bad))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("alpha", [2.0, 200.0])
@pytest.mark.parametrize("frac", [2.0, 4.0])
def test_support_solution_oracle_agrees(n, alpha, frac):
    assert verify_support_solution(n, alpha, alpha / frac)


def test_support_solution_oracle_dimension_limit():
    with pytest.raises(UnsupportedDimensionError):
        verify_support_solution(4, 200.0, 100.0)
    with pytest.raises(ValueError):
        verify_support_solution(0, 200.0, 100.0)


def test_support_solution_matches_hand_enumeration_n2():
    # the 2-D bounding polygon has exactly these five corners
    corners = [
        np.array([0.0, 0.0]),
        np.array([200.0, 0.0]),
        np.array([200.0, 100.0]),
        np.array([100.0, 200.0]),
        np.array([0.0, 200.0]),
    ]
    support = build_support(2, 200.0)
    A = np.stack([q.a for q in support])
    b = np.array([q.b for q in support])
    for v in corners:
        assert np.all(A @ v <= b + 1e-9)
    c = build_objective(2, 100.0)
    scores = [objective_value(c, v) for v in corners]
    best = int(np.argmax(scores))
    assert np.array_equal(corners[best], support_only_solution(2, 200.0))
    assert scores[best] == 50000.0


def test_reports_are_cumulative(demo_instance):
    # several independent defects must all be reported in one pass
    zero = Inequality(np.zeros(2), 5.0)
    dup = demo_instance.random[1]
    bad = replace(demo_instance, random=demo_instance.random + (zero, dup))
    report = validate_instance(bad)
    conds = conditions(report)
    assert "nonzero coefficient norm" in conds
    assert any(c.startswith("alike with") for c in conds)
    assert len(report.violations) >= 2


# --- non-finite rows ------------------------------------------------------------


def with_token(inst, row, col, value):
    """inst with one number replaced: column col of constraint row (col n is
    the right-hand side), or objective coefficient col when row is None."""
    if row is None:
        c = inst.c.copy()
        c[col] = value
        return replace(inst, c=c)
    rows = list(inst.constraints)
    q = rows[row]
    a, b = q.a.copy(), q.b
    if col == inst.n:
        b = value
    else:
        a[col] = value
    rows[row] = Inequality(a, b)
    k = len(inst.support)
    return replace(inst, support=tuple(rows[:k]), random=tuple(rows[k:]))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_any_single_non_finite_token_is_flagged(demo_instance, value):
    n = demo_instance.n
    spots = [(i, j) for i in range(demo_instance.m) for j in range(n + 1)]
    spots += [(None, j) for j in range(n)]
    for row, col in spots:
        report = validate_instance(with_token(demo_instance, row, col, value))
        assert not report.ok, (row, col)
        if row is None:
            assert "objective row mismatch" in conditions(report)
        else:
            assert (row, "finite coefficients") in [
                (v.constraint, v.condition) for v in report.violations
            ], (row, col)


def test_finite_row_whose_norm_overflows_is_not_called_non_finite(demo_instance):
    row = len(demo_instance.support)
    with np.errstate(over="ignore"):  # the squares of 1e200 overflow
        report = validate_instance(with_token(demo_instance, row, 0, 1e200))
    assert (row, "finite coefficients") not in [
        (v.constraint, v.condition) for v in report.violations
    ]


# --- blocked pairwise likeness ------------------------------------------------


def alike_violations(report):
    return [(v.constraint, v.condition) for v in report.violations
            if v.condition.startswith("alike with")]


def all_pairs_reference(inst):
    """Every pair of usable rows checked with ``likeness``, row-major."""
    rows = inst.constraints
    p = inst.params
    usable = [i for i, q in enumerate(rows) if float(np.abs(q.a).max()) > 0.0]
    return [
        (j, f"alike with constraint {i}")
        for x, i in enumerate(usable)
        for j in usable[x + 1 :]
        if likeness(rows[i], rows[j], p.l_max, p.s_min)
    ]


@pytest.fixture(scope="module")
def tampered_tall():
    # 341 rows; constraint 100 is zeroed, so usable row k is constraint k+1
    # from there on and the 256-row block boundary falls between constraints
    # 256 and 257.  Injected alike pairs: (256, 257) across that boundary,
    # (5, 300) and (256, 290) from the first block into the second, a copy
    # of bounding row 0 near the end, and (200, 320), two rows whose norms
    # overflow, so that both unit normals are 0.
    inst, _ = generate_sequential(GeneratorParams(n=20, d=300, seed=0))
    rows = list(inst.constraints)
    rows[100] = Inequality(np.zeros(20), 1.0)
    rows[200] = Inequality(1e200 * rows[200].a, 1e200 * rows[200].b)
    rows[320] = Inequality(1e200 * rows[320].a, 1e200 * rows[320].b)
    rows[257] = Inequality(2.0 * rows[256].a, 2.0 * rows[256].b)
    rows[290] = Inequality(0.5 * rows[256].a, 0.5 * rows[256].b + 1.0)
    tilt = rows[5].a.copy()
    tilt[0] += 1e-3 * float(np.abs(tilt).max())
    rows[300] = Inequality(tilt, rows[5].b)
    rows[330] = Inequality(3.0 * rows[0].a, 3.0 * rows[0].b)
    k = len(inst.support)
    bad = replace(inst, support=tuple(rows[:k]), random=tuple(rows[k:]))
    with np.errstate(over="ignore"):
        return bad, all_pairs_reference(bad)


@pytest.mark.parametrize("block", [1, 7, 256])
def test_blocked_pairs_match_all_pairs_reference(tampered_tall, block, monkeypatch):
    inst, want = tampered_tall
    assert {(257, "alike with constraint 256"), (300, "alike with constraint 5"),
            (290, "alike with constraint 256"), (330, "alike with constraint 0"),
            (320, "alike with constraint 200")} <= set(want)
    monkeypatch.setattr(validator, "_PAIR_BLOCK", block)
    rechecks = []

    def counted(*args):
        rechecks.append(args)
        return likeness(*args)

    monkeypatch.setattr(validator, "likeness", counted)
    with np.errstate(over="ignore"):
        assert alike_violations(validate_instance(inst)) == want
    # the overflowing rows lower only their own pairs' direction cut, so
    # the shortlist stays far below the 57,630 pairs
    assert len(rechecks) < inst.m


def test_validation_memory_grows_with_m_not_m_squared():
    # a tall-par-sized instance: m = 2041 rows, where an m x m Gram matrix
    # alone would take 8 m^2 = 33 MB
    inst, _ = generate_parallel(GeneratorParams(n=20, d=2000, seed=0, workers=2))
    m = inst.m
    tracemalloc.start()
    try:
        report = validate_instance(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 2 * m * m, peak


# --- row conditions over one stack versus one row at a time -------------------


ROW_CONDITIONS = {
    "finite coefficients",
    "nonzero coefficient norm",
    "center feasibility a.h <= b",
    "distance > rho",
    "distance <= theta",
    "objective improvement at projection",
}


def within(x, bound):
    return x <= bound + 1e-9 * max(1.0, abs(bound))


def per_row_reference(inst):
    """The row conditions checked one row at a time with the scalar
    operations, in the validator's order."""
    rows = inst.constraints
    p = inst.params
    norms = [float(row_norms(q.a)) for q in rows]
    finite = [bool(np.isfinite(q.a).all()) and math.isfinite(q.b) for q in rows]
    out = [(i, "finite coefficients", "nan or inf", "finite")
           for i in range(len(rows)) if not finite[i]]
    out += [(i, "nonzero coefficient norm", 0.0, "> 0")
            for i in range(len(rows)) if finite[i] and norms[i] == 0.0]
    h = hypercube_center(inst.n, p.alpha)
    f_h = objective_value(inst.c, h)
    for i, q in enumerate(rows):
        if not (finite[i] and norms[i] > 0.0):
            continue
        ah = float(row_dots(q.a, h))
        if not within(ah, q.b):
            out.append((i, "center feasibility a.h <= b", ah, q.b))
        if i < len(inst.support):
            continue
        dist = distance_to_center(h, q)
        if not dist > p.rho:
            out.append((i, "distance > rho", dist, p.rho))
        if not within(dist, p.theta):
            out.append((i, "distance <= theta", dist, p.theta))
        f_proj = objective_value(inst.c, project_center(h, q))
        if not f_proj > f_h:
            out.append((i, "objective improvement at projection", f_proj, f_h))
    return [(i, cond, repr(measured), repr(bound)) for i, cond, measured, bound in out]


def row_violations(report):
    return [(v.constraint, v.condition, repr(v.measured), repr(v.bound))
            for v in report.violations if v.condition in ROW_CONDITIONS]


def recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, {(w.category, str(w.message)) for w in caught}


def tampered(inst, edits):
    rows = list(inst.constraints)
    for i, edit in edits:
        q = rows[i]
        rows[i] = Inequality(*edit(q.a.copy(), q.b))
    k = len(inst.support)
    return replace(inst, support=tuple(rows[:k]), random=tuple(rows[k:]))


def with_a0(value):
    def edit(a, b):
        a[0] = value
        return a, b
    return edit


def through_center(a, b):
    return a, float(row_dots(a, np.full(a.shape[0], 100.0)))


TAMPERINGS = {
    "sign flip": [(20, lambda a, b: (-a, -b))],
    "through the center": [(21, through_center)],
    "far out": [(22, lambda a, b: (a, b + 10.0 * float(row_norms(a)) * 100.0))],
    # the mirror image through h of the row's normal, at the same distance
    "not improving": [(23, lambda a, b: (-a, b - 2.0 * float(row_dots(a, np.full(a.shape[0], 100.0)))))],
    "bounding row pushed in": [(3, lambda a, b: (a, -1.0))],
    "zero row": [(24, lambda a, b: (0.0 * a, b))],
    "nan coefficient": [(25, with_a0(math.nan))],
    "inf right-hand side": [(26, lambda a, b: (a, math.inf))],
    "norm overflows": [(27, lambda a, b: (1e200 * a, 1e200 * b))],
    "norm underflows": [(28, lambda a, b: (1e-170 * a, 1e-170 * b))],
    "huge right-hand side": [(29, lambda a, b: (a, 1.7976931348623157e308))],
}
TAMPERINGS["all at once"] = [
    edit
    for name in ("sign flip", "through the center", "far out", "zero row", "nan coefficient",
                 "norm overflows")
    for edit in TAMPERINGS[name]
]


@pytest.fixture(scope="module")
def row_condition_instance():
    inst, _ = generate_sequential(GeneratorParams(n=5, d=20, seed=1))
    return inst


@pytest.mark.parametrize("name", list(TAMPERINGS))
def test_row_conditions_match_a_per_row_reference(row_condition_instance, name):
    bad = tampered(row_condition_instance, TAMPERINGS[name])
    with np.errstate(over="ignore"):  # the squares of 1e200 overflow
        want, _ = recorded(per_row_reference, bad)
        report, _ = recorded(validate_instance, bad)
    assert not report.ok
    assert row_violations(report) == want


def test_row_conditions_cover_every_condition(row_condition_instance):
    seen = set()
    for edits in TAMPERINGS.values():
        with np.errstate(over="ignore"):
            seen |= {v[1] for v in per_row_reference(tampered(row_condition_instance, edits))}
    assert seen == ROW_CONDITIONS


@pytest.mark.parametrize("name", list(TAMPERINGS))
def test_row_conditions_raise_no_new_warning(row_condition_instance, name):
    bad = tampered(row_condition_instance, TAMPERINGS[name])
    _, reference_warnings = recorded(per_row_reference, bad)
    _, got = recorded(validate_instance, bad)
    assert got <= reference_warnings
