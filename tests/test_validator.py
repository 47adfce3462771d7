import io
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from randlp import (
    GeneratorParams,
    Inequality,
    LPInstance,
    UnsupportedDimensionError,
    build_objective,
    build_support,
    distance_to_center,
    generate_parallel,
    generate_sequential,
    instance_to_text,
    likeness,
    objective_value,
    project_center,
    read_instance,
    support_only_solution,
    validate_instance,
    validate_params,
    verify_support_solution,
)
from randlp import validator
from randlp.geometry import hypercube_center, row_dots, row_norms
from randlp.model import BoundingBlock

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


# An instance of any of the shapes below is refused when it would be built,
# so the validator never meets one.


def test_wrong_support_count_is_structural(demo_instance):
    with pytest.raises(ValueError, match="expected 2n\\+1 = 5 bounding rows, got 4"):
        replace(demo_instance, support=demo_instance.support[:-1])


def test_zero_variables_is_structural():
    with pytest.raises(ValueError, match="expected n >= 1, got 0"):
        LPInstance.from_arrays(0, BoundingBlock.canonical(0, 200.0), np.empty((0, 0)),
                               np.empty(0), np.empty(0), GeneratorParams(n=0))


def test_short_objective_is_structural(demo_instance):
    inst = demo_instance
    with pytest.raises(ValueError, match="an objective of 2 coefficients, got 1"):
        LPInstance.from_arrays(inst.n, inst.bounding, inst.random_a, inst.random_b,
                               inst.c[:-1], inst.params)


def test_short_bounding_row_is_structural(demo_instance):
    rows = list(demo_instance.support)
    rows[3] = Inequality(rows[3].a[:-1], rows[3].b)
    with pytest.raises(ValueError, match="bounding row 3: expected 2 coefficients, got 1"):
        replace(demo_instance, support=tuple(rows))


@pytest.mark.parametrize("alpha, theta, want", [
    (200.0, 150.0, [("theta <= alpha/2", 150.0, 100.0)]),
    (0.0, 100.0, [("alpha > 0", 0.0, 0.0), ("theta <= alpha/2", 100.0, 0.0)]),
    (200.0, 0.0, [("theta > 0", 0.0, 0.0)]),
    (-4.0, -1.0, [("alpha > 0", -4.0, 0.0), ("theta > 0", -1.0, 0.0),
                  ("theta <= alpha/2", -1.0, -2.0)]),
    (math.inf, 100.0, [("alpha finite", math.inf, "finite")]),
    (math.inf, math.inf, [("alpha finite", math.inf, "finite"),
                          ("theta finite", math.inf, "finite")]),
])
def test_stored_parameters_that_gen_refuses_are_structural(demo_instance, alpha, theta, want):
    # alpha and theta are what a file stores of the parameters; the rows
    # were built for other values, but the parameters are reported alone
    params = replace(demo_instance.params, alpha=alpha, theta=theta)
    report = validate_instance(replace(demo_instance, params=params))
    assert not report.ok
    assert [(v.constraint, v.condition, v.measured, v.bound) for v in report.violations] == [
        (-1, *w) for w in want
    ]
    assert all(name in validate_params(params) for name, _, _ in want)


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
    usable = [i for i, q in enumerate(rows)
              if np.isfinite(q.a).all() and math.isfinite(q.b) and float(row_norms(q.a)) > 0.0]
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


@pytest.fixture(scope="module")
def unusable_bounding_row():
    # bounding row 3 is zeroed, made nan or scaled until its norm underflows
    # to 0; after it, constraint 30 doubles constraint 20, constraint 40 is
    # a near-copy of constraint 12 and constraint 45 triples bounding row 7
    inst, _ = generate_sequential(GeneratorParams(n=5, d=40, seed=2))
    cases = []
    for edit in (lambda a, b: (0.0 * a, b),
                 with_a0(math.nan),
                 lambda a, b: (1e-170 * a, 1e-170 * b)):
        rows = list(inst.constraints)
        rows[3] = Inequality(*edit(rows[3].a.copy(), rows[3].b))
        rows[30] = Inequality(2.0 * rows[20].a, 2.0 * rows[20].b)
        tilt = rows[12].a.copy()
        tilt[1] += 1e-3 * float(np.abs(tilt).max())
        rows[40] = Inequality(tilt, rows[12].b)
        rows[45] = Inequality(3.0 * rows[7].a, 3.0 * rows[7].b)
        k = len(inst.support)
        bad = replace(inst, support=tuple(rows[:k]), random=tuple(rows[k:]))
        cases.append((bad, all_pairs_reference(bad)))
    return cases


@pytest.mark.parametrize("block", [1, 7, 256])
def test_blocked_pairs_match_all_pairs_reference(tampered_tall, unusable_bounding_row, block,
                                                 monkeypatch):
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

    for inst, want in unusable_bounding_row:
        assert {(30, "alike with constraint 20"), (40, "alike with constraint 12"),
                (45, "alike with constraint 7")} <= set(want)
        rechecks.clear()
        assert alike_violations(validate_instance(inst)) == want
        # no pair with the unusable row reaches the recheck
        assert all(q is not inst.constraints[3] for args in rechecks for q in args[:2])
        assert len(rechecks) < inst.m


def test_validation_memory_grows_with_m_not_m_squared():
    # a tall-par-sized instance: m = 2041 rows, where an m x m Gram matrix
    # alone would take 8 m^2 = 33 MB; and a wide one, m = 1101 rows of
    # n = 400, whose stack of rows alone takes 8 m n = 3.5 MB
    tall, _ = generate_parallel(GeneratorParams(n=20, d=2000, seed=0, workers=2))
    wide, _ = generate_sequential(GeneratorParams(n=400, d=300, seed=1))
    peaks = []
    for inst in (tall, wide):
        tracemalloc.start()
        try:
            report = validate_instance(inst)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.ok
    assert peaks[0] < 2 * tall.m * tall.m, peaks
    # the stack and one temporary of its size at a time, no second copy
    assert peaks[1] < 3.2 * 8 * wide.m * wide.n, peaks


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
    # an unusable bounding row, then random rows that fail their conditions
    "zero bounding row": [(4, lambda a, b: (0.0 * a, b)), (20, lambda a, b: (-a, -b)),
                          (23, lambda a, b: (a, b + 10.0 * float(row_norms(a)) * 100.0))],
    "nan bounding row": [(6, with_a0(math.nan)), (21, through_center)],
    "underflowing bounding row": [(10, lambda a, b: (1e-170 * a, 1e-170 * b)),
                                  (22, lambda a, b: (-a, -b))],
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


# --- instances stored as arrays -------------------------------------------------


def violation_list(report):
    return [(v.constraint, v.condition, repr(v.measured), repr(v.bound))
            for v in report.violations]


def read_back(inst):
    """inst through its text, with the parameters the text does not store."""
    return read_instance(io.StringIO(instance_to_text(inst))).with_params(inst.params)


def from_arrays(inst, k):
    """inst split at row k into bounding rows and random rows, built from
    arrays: the bounding rows in closed form where they are canonical."""
    rows = inst.constraints
    a = np.array([q.a for q in rows[k:]]).reshape(-1, inst.n)
    b = np.array([q.b for q in rows[k:]])
    block = BoundingBlock.from_rows(inst.n, inst.params.alpha, rows[:k])
    return LPInstance.from_arrays(inst.n, block, a, b, inst.c, inst.params)


@pytest.mark.parametrize("name", list(TAMPERINGS))
def test_tampered_instances_report_the_same_from_tuples_arrays_and_text(row_condition_instance,
                                                                        name):
    bad = tampered(row_condition_instance, TAMPERINGS[name])
    with np.errstate(over="ignore"):
        want = violation_list(validate_instance(bad))
        assert violation_list(validate_instance(from_arrays(bad, len(bad.support)))) == want
        assert alike_violations(validate_instance(bad)) == all_pairs_reference(bad)
        if all(np.isfinite(q.a).all() and math.isfinite(q.b) for q in bad.constraints):
            assert violation_list(validate_instance(read_back(bad))) == want
        # under another alpha the rows are read as given, and at alpha 500
        # the center lies outside x_j <= 200; with_params keeps the block's
        # alpha, so it refuses another
        for alpha in (400.0, 500.0):
            q = replace(bad.params, alpha=alpha)
            with pytest.raises(ValueError, match="not params.alpha"):
                bad.with_params(q)
            moved = replace(bad, params=q)
            got = validate_instance(from_arrays(moved, len(moved.support)))
            assert violation_list(got) == violation_list(validate_instance(moved))


@pytest.mark.parametrize("k", [0, 5, 10, 11, 12, 20, 30])
def test_any_split_reports_the_same_from_tuples_and_arrays(row_condition_instance, k):
    # only the split at 2n+1 = 11 builds; every other is refused by both
    # constructors
    inst = row_condition_instance
    rows = inst.constraints
    if k != 2 * inst.n + 1:
        with pytest.raises(ValueError, match=f"expected 2n\\+1 = 11 bounding rows, got {k}"):
            replace(inst, support=rows[:k], random=rows[k:])
        with pytest.raises(ValueError, match=f"expected 2n\\+1 = 11 bounding rows, got {k}"):
            from_arrays(inst, k)
        return
    split = replace(inst, support=rows[:k], random=rows[k:])
    report = validate_instance(split)
    assert report.ok
    assert split == inst == from_arrays(inst, k)
    assert violation_list(validate_instance(from_arrays(inst, k))) == violation_list(report)


def test_n1_file_reports_the_diagonal_alike_with_the_first_row():
    inst = read_instance(io.StringIO("1 3 0 0\n1 150\n-1 0\n1 75\n50\n"))
    assert [str(v) for v in validate_instance(inst).violations] == [
        "constraint 2: alike with constraint 0 (measured direction gap 0, "
        "bound < 0.35 is too similar)"
    ]


@pytest.mark.parametrize("l_max, s_min", [
    (1.5, 300.0), (1.9, 1e4),
    # just above sqrt(2), where the pairs within the families start to count
    (1.41422, 300.0),
    # s_min < alpha: only pairs within one family are near in offset
    (1.5, 150.0),
    # above 2 also +e_j and -e_j of the same column are close enough
    (2.0001, 300.0),
])
def test_rows_with_one_nonzero_of_different_columns_pair_up_under_a_wide_bound(l_max, s_min):
    # above l_max = sqrt(2) rows +-e_j and +-e_k of different columns are
    # close enough in direction, so the zero product between them decides
    inst, _ = generate_sequential(GeneratorParams(n=3, d=4, seed=1))
    rows = list(inst.constraints)
    rows[8] = Inequality([0.0, 2.0, 0.0], 300.0)
    wide = replace(inst, random=tuple(rows[7:]),
                   params=replace(inst.params, l_max=l_max, s_min=s_min))
    want = all_pairs_reference(wide)
    assert any(i < 6 and j < 6 and i % 3 != j % 3
               for j, cond in want for i in [int(cond.rsplit(" ", 1)[1])])
    assert alike_violations(validate_instance(wide)) == want


# --- a seeded sweep of tampered instances ----------------------------------------


def _random_tampering(gen, inst, rows):
    """Apply one tampering, drawn from gen, to the list of constraint rows."""
    n, m = inst.n, len(rows)
    i, k = (int(x) for x in gen.integers(m, size=2))
    kind = gen.choice(["one nonzero", "scaled copy", "nan", "negative zero", "swap",
                       "perturbed copy"])
    if kind == "one nonzero":
        # a row +-t e_j, its offset that of some bounding row or anywhere
        a = np.zeros(n)
        a[gen.integers(n)] = gen.choice([-1.0, 1.0]) * gen.choice([1.0, 0.5, 3.0])
        b = float(gen.choice([0.0, inst.params.alpha, gen.uniform(-300.0, 300.0)]))
        rows[i] = Inequality(a, abs(a).max() * b)
    elif kind == "scaled copy":
        s = float(gen.choice([2.0, 0.5, 3.0, 1e200, 1e-170]))
        rows[i] = Inequality(s * rows[k].a, s * rows[k].b)
    elif kind == "nan":
        rows[i] = Inequality(*with_a0(math.nan)(rows[i].a.copy(), rows[i].b))
    elif kind == "negative zero":
        a = rows[i].a.copy()
        a[gen.integers(n)] = -0.0
        rows[i] = Inequality(a, rows[i].b)
    elif kind == "swap":
        rows[i], rows[k] = rows[k], rows[i]
    else:
        a = rows[k].a * (1.0 + 1e-3 * gen.standard_normal(n))
        rows[i] = Inequality(a, rows[k].b + float(gen.uniform(-50.0, 50.0)))


@pytest.fixture(scope="module")
def sweep_bases():
    return [generate_sequential(GeneratorParams(n=n, d=d, seed=seed))[0]
            for n, d, seed in [(1, 0, 0), (2, 5, 42), (3, 6, 1), (4, 8, 2), (5, 10, 3)]]


def test_seeded_tampered_sweep_matches_the_references(sweep_bases):
    # 300 instances, each with 1-4 tamperings and its own l_max and s_min:
    # the pair shortlists (stacked rows, closed-form axis rows, pairs within
    # the axis families above l_max = sqrt(2)) must keep every alike pair,
    # and the row conditions must be those of one row at a time
    gen = np.random.default_rng(20261019)
    seen = set()
    for _ in range(300):
        inst = sweep_bases[int(gen.integers(len(sweep_bases)))]
        rows = list(inst.constraints)
        for _ in range(int(gen.integers(1, 5))):
            _random_tampering(gen, inst, rows)
        params = replace(inst.params, l_max=float(gen.choice([0.35, 0.7, 1.5, 1.9])),
                         s_min=float(gen.choice([100.0, 300.0])))
        k = len(inst.support)
        bad = replace(inst, support=tuple(rows[:k]), random=tuple(rows[k:]), params=params)
        with np.errstate(over="ignore", invalid="ignore"):
            report = validate_instance(bad)
            alike = alike_violations(report)
            assert alike == all_pairs_reference(bad)
            assert row_violations(report) == per_row_reference(bad)
        seen.add((params.l_max, bool(alike)))
    # every l_max was drawn, with and without alike pairs
    assert seen == {(l, hit) for l in (0.35, 0.7, 1.5, 1.9) for hit in (False, True)}
