import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from randlp import (
    Inequality,
    SimilarityIndex,
    build_support,
    distance_to_center,
    hypercube_center,
    likeness,
    objective_value,
    project_center,
)
from randlp import geometry
from randlp.geometry import (
    axis_pairs,
    bounding_alike,
    bounding_pairs,
    direction_cut,
    near_pairs,
    row_dots,
    row_norms,
    row_sumsq,
    stack_pairs,
    unit_rows,
)
from randlp.model import BoundingBlock

H = hypercube_center(2, 200.0)


def test_hypercube_center():
    h = hypercube_center(3, 200.0)
    assert np.array_equal(h, [100.0, 100.0, 100.0])
    with pytest.raises(ValueError):
        h[0] = 1.0


def test_objective_value_examples():
    assert objective_value(np.array([200.0, 100.0]), np.array([200.0, 100.0])) == 50000
    assert objective_value(np.array([200.0, 100.0]), np.zeros(2)) == 0
    assert objective_value(np.array([300.0, 200.0, 100.0]), np.array([200.0, 200.0, 100.0])) == 110000


def test_distance_examples():
    assert distance_to_center(H, Inequality([3.0, 4.0], 0.0)) == 140.0
    assert distance_to_center(H, Inequality([1.0, 0.0], 200.0)) == 100.0
    assert distance_to_center(H, Inequality([1.0, 1.0], 300.0)) == pytest.approx(100 / math.sqrt(2), rel=1e-12)


def test_projection_examples():
    assert np.allclose(project_center(H, Inequality([1.0, 0.0], 50.0)), [50.0, 100.0])
    assert np.allclose(project_center(H, Inequality([0.0, 1.0], 100.0)), [100.0, 100.0])
    p = project_center(H, Inequality([3.0, 4.0], 0.0))
    assert np.allclose(p, [16.0, -12.0])
    assert abs(np.dot([3.0, 4.0], p)) < 1e-9


def test_zero_norm_is_a_domain_error():
    z = Inequality([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        distance_to_center(H, z)
    with pytest.raises(ValueError):
        project_center(H, z)
    with pytest.raises(ValueError):
        likeness(z, Inequality([1.0, 0.0], 1.0), 0.35, 100.0)


def test_likeness_examples():
    q = Inequality([1.0, 0.0], 100.0)
    assert likeness(q, Inequality([1.0, 0.0], 100.0), 0.35, 100.0)
    assert likeness(Inequality([2.0, 0.0], 200.0), q, 0.35, 100.0)
    assert not likeness(q, Inequality([0.0, 1.0], 100.0), 0.35, 100.0)


def test_likeness_requires_both_parts():
    q1 = Inequality([1.0, 0.0], 0.0)
    # same direction, offsets far apart: nearly parallel but not nearly concurrent
    assert not likeness(q1, Inequality([1.0, 0.0], 150.0), 0.35, 100.0)
    # close offsets, directions far apart
    assert not likeness(q1, Inequality([0.0, 1.0], 10.0), 0.35, 100.0)
    # both close
    assert likeness(q1, Inequality([1.0, 0.01], 10.0), 0.35, 100.0)


finite = dict(allow_nan=False, allow_infinity=False)


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
    st.floats(-1e4, 1e4),
    st.floats(1e-3, 1e3),
)
@settings(max_examples=100, deadline=None)
def test_scale_invariance(coeffs, b, t):
    a = np.array(coeffs)
    if float(np.linalg.norm(a)) < 1e-6:
        return
    n = len(a)
    h = hypercube_center(n, 200.0)
    q = Inequality(a, b)
    qt = Inequality(t * a, t * b)
    d1, d2 = distance_to_center(h, q), distance_to_center(h, qt)
    assert d2 == pytest.approx(d1, rel=1e-12, abs=1e-12)
    assert np.allclose(project_center(h, q), project_center(h, qt), rtol=1e-9, atol=1e-9)
    assert likeness(q, qt, 0.35, 100.0)


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
    st.floats(-1e4, 1e4),
)
@settings(max_examples=100, deadline=None)
def test_projection_lands_on_hyperplane(coeffs, b):
    a = np.array(coeffs)
    nrm = float(np.linalg.norm(a))
    if nrm < 1e-3:
        return
    n = len(a)
    h = hypercube_center(n, 200.0)
    p = project_center(h, Inequality(a, b))
    assert float(np.dot(a, p)) == pytest.approx(b, rel=1e-9, abs=1e-6 * nrm)


@given(st.floats(1e-9, math.pi - 1e-9), st.floats(0, 2 * math.pi))
@settings(max_examples=200, deadline=None)
def test_unit_vector_gap_matches_angle_formula(phi, t):
    e1 = np.array([math.cos(t), math.sin(t)])
    e2 = np.array([math.cos(t + phi), math.sin(t + phi)])
    gap = float(np.linalg.norm(e1 - e2))
    # half-angle form of sqrt(2(1-cos phi)): stable down to vanishing angles
    assert gap == pytest.approx(2.0 * math.sin(phi / 2.0), abs=1e-12)


@given(st.floats(1e-3, math.pi - 1e-9), st.floats(0, 2 * math.pi))
@settings(max_examples=200, deadline=None)
def test_unit_vector_gap_matches_angle_formula_as_written(phi, t):
    # the raw expression loses ~1e-16/gap to cancellation in 1 - cos(phi),
    # so the 1e-12 comparison is only meaningful away from phi -> 0
    e1 = np.array([math.cos(t), math.sin(t)])
    e2 = np.array([math.cos(t + phi), math.sin(t + phi)])
    gap = float(np.linalg.norm(e1 - e2))
    assert gap == pytest.approx(math.sqrt(2 * (1 - math.cos(phi))), abs=1e-12)


def test_quarter_turn_gap_motivates_direction_bound():
    # at a 45 degree angle the unit-normal gap is ~0.765, just above 0.7
    gap = math.sqrt(2 * (1 - math.cos(math.pi / 4)))
    assert 0.7 < gap < 0.766


@given(
    st.lists(
        st.tuples(
            st.lists(st.floats(-100, 100), min_size=3, max_size=3),
            st.floats(-500, 500),
        ),
        min_size=0,
        max_size=8,
    ),
    st.tuples(st.lists(st.floats(-100, 100), min_size=3, max_size=3), st.floats(-500, 500)),
)
@settings(max_examples=100, deadline=None)
def test_index_agrees_with_pairwise_likeness(rows, probe):
    def usable(pair):
        return float(np.linalg.norm(np.array(pair[0]))) > 1e-6

    rows = [r for r in rows if usable(r)]
    if not usable(probe):
        return
    ineqs = [Inequality(np.array(a), b) for a, b in rows]
    idx = SimilarityIndex.from_inequalities(ineqs, 3, 0.35, 100.0)
    q = Inequality(np.array(probe[0]), probe[1])
    expected = any(likeness(q, e, 0.35, 100.0) for e in ineqs)
    assert idx.any_alike(q.a, q.b) == expected


def test_index_append_then_query():
    idx = SimilarityIndex(2, 0.35, 100.0)
    for j in range(5):
        idx.append(np.array([1.0, float(j)]), 10.0 * j)  # exercises growth
    assert len(idx) == 5
    assert idx.any_alike(np.array([1.0, 0.0]), 0.0)
    assert not idx.any_alike(np.array([-1.0, 0.0]), 0.0)
    with pytest.raises(ValueError):
        idx.append(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        idx.any_alike(np.zeros(2), 1.0)


# --- closed-form bounding screen versus the dense bounding index -------------


SCREEN_NS = [1, 2, 3, 20, 400]
ALPHA = 200.0


@functools.lru_cache(maxsize=None)
def support_rows(n):
    return tuple(build_support(n, ALPHA))


def dense_bounding(n, l_max, s_min):
    return SimilarityIndex.from_inequalities(support_rows(n), n, l_max, s_min)


def assert_screen_matches_dense(n, l_max, s_min, rows):
    block = BoundingBlock.canonical(n, ALPHA)
    dense = dense_bounding(n, l_max, s_min)
    for a, b in rows:
        got = bounding_alike(block, np.asarray(a)[None, :], np.array([b]), l_max, s_min)[0]
        assert got == dense.any_alike(a, b), (a, b, l_max, s_min)


def assert_pairs_match_likeness(n, l_max, s_min, rows):
    """``bounding_pairs`` of the stacked rows are exactly the (row,
    bounding row) pairs for which ``likeness`` holds."""
    stack = unit_rows(np.stack([np.asarray(a) for a, _ in rows]),
                      np.array([b for _, b in rows]), "compared")
    k, i = bounding_pairs(BoundingBlock.canonical(n, ALPHA), stack, l_max, s_min)
    want = {
        (x, y)
        for x, row in enumerate(Inequality(a, b) for a, b in rows)
        for y, q in enumerate(support_rows(n))
        if likeness(row, q, l_max, s_min)
    }
    assert sorted(zip(k.tolist(), i.tolist())) == sorted(want), (l_max, s_min)


def bounding_units(n):
    """(unit normal, normalized offset) of every bounding row, computed the
    way SimilarityIndex normalizes them."""
    out = []
    for q in support_rows(n):
        nrm = float(row_norms(q.a))
        out.append((q.a / nrm, q.b / nrm))
    return out


def near_row(gen, unit, offset, spread, shift, scale):
    """A row whose unit normal lies about `spread` from `unit` and whose
    normalized offset lies `shift` from `offset`, scaled by `scale`."""
    v = unit + spread * gen.standard_normal(unit.shape[0]) / math.sqrt(unit.shape[0])
    if float(row_norms(v)) == 0.0:
        v = unit
    nrm = float(row_norms(v))
    return scale * v, scale * nrm * (offset + shift)


@pytest.mark.parametrize("n", SCREEN_NS)
@given(
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 1.0),
    shift=st.floats(-300.0, 300.0),
    scale=st.floats(1e-3, 1e3),
    l_max=st.floats(0.01, 0.7),
    s_min=st.floats(1.0, 150.0),
)
@settings(max_examples=40, deadline=None)
def test_screen_matches_dense_index_near_bounding_rows(n, seed, spread, shift, scale, l_max, s_min):
    gen = np.random.default_rng(seed)
    units = bounding_units(n)
    unit, offset = units[int(gen.integers(len(units)))]
    rows = [near_row(gen, unit, offset, spread, shift, scale)]
    # and one unrelated row: a random direction and offset
    a = gen.uniform(-1000.0, 1000.0, n)
    rows.append((a, float(gen.uniform(-1e4, 1e4))))
    assert_screen_matches_dense(n, l_max, s_min, rows)
    assert_pairs_match_likeness(n, l_max, s_min, rows)


@given(
    st.lists(st.floats(-1e3, 1e3, **finite), min_size=1, max_size=3),
    st.floats(-1e4, 1e4, **finite),
    st.floats(0.01, 0.7),
    st.floats(1.0, 150.0),
)
@settings(max_examples=300, deadline=None)
def test_screen_matches_dense_index_on_drawn_rows(coeffs, b, l_max, s_min):
    a = np.array(coeffs)
    if float(row_norms(a)) == 0.0:
        return
    assert_screen_matches_dense(len(a), l_max, s_min, [(a, b)])


def threshold_rows(n):
    """For each bounding row (three of them when n > 20), its index k and
    the rows tilted to a gap of l_max +- 1e-12 from it, each with the
    thresholds set to the exact rounded gap and offset difference the dense
    index computes, and one ulp either side of them."""
    gen = np.random.default_rng(n)
    units = bounding_units(n)
    picks = range(len(units)) if n <= 20 else [n - 1, n, 2 * n]
    for k in picks:
        unit, offset = units[k]
        w = gen.standard_normal(n) if n > 1 else np.zeros(1)
        w -= row_dots(w, unit) * unit
        w_nrm = float(row_norms(w))
        rows = []
        for target in (0.35 - 1e-12, 0.35, 0.35 + 1e-12):
            angle = 2.0 * math.asin(target / 2.0)
            u = math.cos(angle) * unit + (math.sin(angle) * w / w_nrm if w_nrm else 0.0)
            for beta in (offset - 100.0, offset + 100.0, offset + 99.9999):
                a = 3.0 * u
                b = 3.0 * float(row_norms(u)) * beta
                nrm = float(row_norms(a))
                gap = float(row_norms(unit - a / nrm))
                off = abs(offset - b / nrm)
                thresholds = [(0.35, 100.0)] + [
                    (float(l_max), float(s_min))
                    for l_max in (gap, np.nextafter(gap, 0.0), np.nextafter(gap, 1.0))
                    for s_min in (off, np.nextafter(off, 0.0), np.nextafter(off, 1e9))
                ]
                rows.append((a, b, thresholds))
        yield k, rows


@pytest.mark.parametrize("n", SCREEN_NS)
def test_screen_matches_dense_index_at_the_thresholds(n):
    units = bounding_units(n)
    for k, rows in threshold_rows(n):
        for a, b, thresholds in rows:
            for l_max, s_min in thresholds:
                assert_screen_matches_dense(n, l_max, s_min, [(a, b)])
                assert_pairs_match_likeness(n, l_max, s_min, [(a, b)])
        # the row itself sits at gap 0 and offset difference 0
        unit, offset = units[k]
        block = BoundingBlock.canonical(n, ALPHA)
        assert bounding_alike(block, 3.0 * unit[None, :], np.array([3.0 * offset]), 0.35, 100.0)[0]


def assert_stack_matches_dense(n, l_max, s_min, rows):
    a = np.stack([r for r, _ in rows])
    b = np.array([v for _, v in rows])
    dense = dense_bounding(n, l_max, s_min)
    want = [dense.any_alike(r, v) for r, v in rows]
    got = bounding_alike(BoundingBlock.canonical(n, ALPHA), a, b, l_max, s_min)
    assert got.dtype == bool
    assert got.tolist() == want, (l_max, s_min)


STACK_NS = [1, 2, 20, 400]


@pytest.mark.parametrize("n", STACK_NS)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 30),
    spread=st.floats(0.0, 1.0),
    shift=st.floats(0.0, 300.0),
    scale=st.floats(1e-3, 1e3),
    l_max=st.floats(0.01, 0.7),
    s_min=st.floats(1.0, 150.0),
)
@settings(max_examples=40, deadline=None)
def test_screen_alike_rows_matches_dense_index_per_row(n, seed, k, spread, shift, scale, l_max, s_min):
    # a stack of rows near random bounding rows, at spreads and shifts up
    # to the drawn ones, and one unrelated row
    gen = np.random.default_rng(seed)
    units = bounding_units(n)
    rows = []
    for _ in range(k):
        unit, offset = units[int(gen.integers(len(units)))]
        rows.append(near_row(gen, unit, offset, spread * gen.uniform(),
                             shift * gen.uniform(-1.0, 1.0), scale))
    rows.append((gen.uniform(-1000.0, 1000.0, n), float(gen.uniform(-1e4, 1e4))))
    assert_stack_matches_dense(n, l_max, s_min, rows)


@pytest.mark.parametrize("n", STACK_NS)
def test_screen_alike_rows_matches_dense_index_at_the_thresholds(n):
    # the rows tilted around one bounding row, stacked, at each row's exact
    # thresholds: one stack holds rows on both sides of l_max and s_min
    for _, rows in threshold_rows(n):
        stack = [(a, b) for a, b, _ in rows]
        for l_max, s_min in {t for _, _, thresholds in rows for t in thresholds}:
            assert_stack_matches_dense(n, l_max, s_min, stack)


def test_screen_alike_rows_rejects_a_zero_row():
    a = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        bounding_alike(BoundingBlock.canonical(3, ALPHA), a, np.array([1.0, 1.0]), 0.35, 100.0)


@pytest.mark.parametrize("n", SCREEN_NS)
@given(seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 0.3))
@settings(max_examples=40, deadline=None)
def test_screen_matches_dense_index_on_underflowing_rows(n, seed, spread):
    # Coefficients near 1e-160 square to subnormals, so the unit normal's
    # squared norm can miss 1 by far more than the shortlist margin; l_max
    # is set one ulp above the dense gap, so the row is alike.
    gen = np.random.default_rng(seed)
    units = bounding_units(n)
    unit, offset = units[int(gen.integers(len(units)))]
    a, b = near_row(gen, unit, offset, spread, 0.0, 1e-160)
    gap = float(row_norms(unit - a / float(row_norms(a))))
    l_max = float(np.nextafter(gap, 1.0))
    if l_max < 0.7:
        assert_screen_matches_dense(n, l_max, 100.0, [(a, b)])
        assert_pairs_match_likeness(n, l_max, 100.0, [(a, b)])


@pytest.mark.parametrize("n", STACK_NS)
def test_bounding_pairs_leave_out_the_edited_rows(n):
    # rows near every bounding row, each alike to it, against blocks with
    # edits: the pairs are the canonical block's, less the edited rows'
    gen = np.random.default_rng(n)
    rows = [near_row(gen, unit, offset, 0.01, 1.0, 2.0) for unit, offset in bounding_units(n)]
    stack = unit_rows(np.stack([a for a, _ in rows]), np.array([b for _, b in rows]), "compared")
    k, i = bounding_pairs(BoundingBlock.canonical(n, ALPHA), stack, 0.35, 100.0)
    assert set(range(2 * n + 1)) <= set(i.tolist())
    for edited in ([0], [2 * n], [n - 1, n, 2 * n], list(range(0, 2 * n + 1, 2))):
        edits = {e: Inequality(np.full(n, 7.0), 1.0) for e in edited}
        got = bounding_pairs(BoundingBlock(n, ALPHA, edits), stack, 0.35, 100.0)
        held = ~np.isin(i, edited)
        assert [x.tolist() for x in got] == [k[held].tolist(), i[held].tolist()]


def test_screen_rejects_a_zero_row_like_the_index():
    with pytest.raises(ValueError):
        bounding_alike(BoundingBlock.canonical(3, ALPHA), np.zeros((1, 3)), np.array([1.0]),
                       0.35, 100.0)


# --- shortlisted accepted-row index versus the dense predicate ---------------


INDEX_NS = [1, 2, 20, 400]


def dense_any_alike(rows, a, b, l_max, s_min):
    """Every stored row compared in full: the predicate the index's
    dot-product shortlist must reproduce bit for bit."""
    A = np.stack([r for r, _ in rows])
    norms = row_norms(A)
    units = A / norms[:, None]
    offsets = np.array([beta for _, beta in rows]) / norms
    nrm = float(row_norms(a))
    u, beta = a / nrm, b / nrm
    return bool(np.any((row_norms(units - u) < l_max) & (np.abs(offsets - beta) < s_min)))


def assert_index_matches_dense(n, rows, probes, l_max, s_min):
    built = SimilarityIndex.from_inequalities(
        [Inequality(r, beta) for r, beta in rows], n, l_max, s_min
    )
    grown = SimilarityIndex(n, l_max, s_min)
    for r, beta in rows:
        grown.append(r, beta)
    for a, b in probes:
        want = dense_any_alike(rows, a, b, l_max, s_min)
        assert built.any_alike(a, b) == want, (a, b, l_max, s_min)
        assert grown.any_alike(a, b) == want, (a, b, l_max, s_min)


@pytest.mark.parametrize("n", INDEX_NS)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 40),
    spread=st.floats(0.0, 1.0),
    shift=st.floats(-300.0, 300.0),
    scales=st.lists(st.sampled_from([1e-160, 1e-3, 1.0, 1e3, 1e200]), min_size=2, max_size=2),
    l_max=st.floats(0.01, 0.7),
    s_min=st.floats(1.0, 150.0),
)
@settings(max_examples=40, deadline=None)
def test_index_shortlist_matches_dense_predicate(n, seed, k, spread, shift, scales, l_max, s_min):
    # rows clustered around one direction, a probe near one of them, and an
    # unrelated probe; tiny or huge scales make the unit rows' norms drift
    # from 1 (partial underflow) or collapse to 0 (overflow)
    gen = np.random.default_rng(seed)
    base = gen.standard_normal(n)
    rows = []
    for _ in range(k):
        v = base + 0.3 * gen.standard_normal(n)
        if float(row_norms(v)) == 0.0:
            v = base
        rows.append((v, float(row_norms(v)) * gen.uniform(-200.0, 200.0)))
    v, beta = rows[int(gen.integers(k))]
    nrm = float(row_norms(v))
    probe = near_row(gen, v / nrm, beta / nrm, spread, shift, scales[1])
    rows[-1] = (scales[0] * rows[-1][0], scales[0] * rows[-1][1])
    other = (gen.uniform(-1000.0, 1000.0, n), float(gen.uniform(-1e4, 1e4)))
    with np.errstate(over="ignore"):  # the squares of 1e200 overflow
        # a row whose squares all underflow has no direction to compare
        assume(float(row_norms(rows[-1][0])) > 0.0 and float(row_norms(probe[0])) > 0.0)
        assert_index_matches_dense(n, rows, [probe, other], l_max, s_min)


@pytest.mark.parametrize("n", INDEX_NS)
def test_index_shortlist_matches_dense_predicate_at_the_thresholds(n):
    # For stored rows of random direction, a probe tilted to a gap of
    # l_max +- 1e-12 from one of them, and thresholds set to the exact
    # rounded gap and offset difference the dense kernel computes, and one
    # ulp either side of them.
    gen = np.random.default_rng(n)
    rows = [(gen.uniform(-1000.0, 1000.0, n), float(gen.uniform(-1e4, 1e4))) for _ in range(30)]
    for k in (0, 17, 29):
        v, b_v = rows[k]
        unit = v / float(row_norms(v))
        offset = b_v / float(row_norms(v))
        w = gen.standard_normal(n) if n > 1 else np.zeros(1)
        w -= row_dots(w, unit) * unit
        w_nrm = float(row_norms(w))
        for target in (0.35 - 1e-12, 0.35, 0.35 + 1e-12):
            angle = 2.0 * math.asin(target / 2.0)
            u = math.cos(angle) * unit + (math.sin(angle) * w / w_nrm if w_nrm else 0.0)
            for beta in (offset - 100.0, offset + 100.0, offset + 99.9999):
                a = 3.0 * u
                b = 3.0 * float(row_norms(u)) * beta
                nrm = float(row_norms(a))
                gap = float(row_norms(unit - a / nrm))
                off = abs(offset - b / nrm)
                thresholds = [(0.35, 100.0)] + [
                    (float(l_max), float(s_min))
                    for l_max in (gap, np.nextafter(gap, 0.0), np.nextafter(gap, 1.0))
                    for s_min in (off, np.nextafter(off, 0.0), np.nextafter(off, 1e9))
                ]
                for l_max, s_min in thresholds:
                    assert_index_matches_dense(n, rows, [(a, b)], l_max, s_min)


# --- stacked queries versus one-at-a-time replay ------------------------------


def replay_verdicts(stored, stack, l_max, s_min):
    """Query each row of the stack in order against the dense predicate, and
    store it when it is not alike: the verdicts a stacked query must give."""
    rows = list(stored)
    out = []
    for a, b in stack:
        hit = bool(rows) and dense_any_alike(rows, a, b, l_max, s_min)
        out.append(hit)
        if not hit:
            rows.append((a, b))
    return out


def stacked_verdicts(n, stored, stack, l_max, s_min):
    idx = SimilarityIndex.from_inequalities([Inequality(a, b) for a, b in stored], n, l_max, s_min)
    got = idx.any_alike(np.stack([a for a, _ in stack]), np.array([b for _, b in stack]))
    assert got.dtype == bool and got.shape == (len(stack),)
    return got.tolist()


@pytest.mark.parametrize("n", INDEX_NS)
@given(
    seed=st.integers(0, 2**32 - 1),
    stored=st.integers(0, 12),
    k=st.integers(1, 40),
    spread=st.sampled_from([0.0, 1e-3, 0.05, 0.2, 1.0]),
    scale=st.sampled_from([1e-160, 1.0, 1e200]),
    l_max=st.floats(0.01, 0.7),
    s_min=st.floats(1.0, 150.0),
)
@settings(max_examples=40, deadline=None)
def test_stacked_verdicts_equal_one_at_a_time_replay(n, seed, stored, k, spread, scale, l_max, s_min):
    # planted near-duplicates: every row lies near one of three bases, so
    # rows of the stack are alike to stored rows, to each other, or both;
    # one row of the stack (at most) is scaled so its norm under- or overflows
    gen = np.random.default_rng(seed)
    bases = [(gen.standard_normal(n), float(gen.uniform(-100.0, 100.0))) for _ in range(3)]

    def planted():
        v, beta = bases[int(gen.integers(3))]
        return near_row(gen, v / float(row_norms(v)), beta, spread, gen.uniform(-s_min, s_min), 1.0)

    rows = [planted() for _ in range(stored)]
    stack = [planted() for _ in range(k)]
    odd = int(gen.integers(k))
    stack[odd] = (scale * stack[odd][0], scale * stack[odd][1])
    with np.errstate(over="ignore"):  # the squares of 1e200 overflow
        assume(float(row_norms(stack[odd][0])) > 0.0)
        want = replay_verdicts(rows, stack, l_max, s_min)
        assert stacked_verdicts(n, rows, stack, l_max, s_min) == want


def test_stacked_chain_accepts_a_row_alike_only_to_a_rejected_one():
    # gap(row 0, row 1) = gap(row 1, row 2) = 0.3 < l_max, gap(row 0, row 2)
    # about 0.59: row 1 is rejected as alike to row 0, so row 2, alike only
    # to row 1, is accepted
    step = 2.0 * math.asin(0.15)
    stack = [(np.array([math.cos(t * step), math.sin(t * step)]), 10.0) for t in range(3)]
    assert replay_verdicts([], stack, 0.35, 100.0) == [False, True, False]
    assert stacked_verdicts(2, [], stack, 0.35, 100.0) == [False, True, False]
    # the same chain behind a stored row alike to row 0 only: row 0 is
    # rejected, so row 1 is accepted and row 2, alike to it, is rejected
    stored = [(np.array([math.cos(-step), math.sin(-step)]), 10.0)]
    assert replay_verdicts(stored, stack, 0.35, 100.0) == [True, False, True]
    assert stacked_verdicts(2, stored, stack, 0.35, 100.0) == [True, False, True]


def test_stacked_query_of_one_row_on_an_empty_index():
    idx = SimilarityIndex(3, 0.35, 100.0)
    got = idx.any_alike(np.array([[1.0, 2.0, 3.0]]), np.array([4.0]))
    assert got.tolist() == [False]
    single = idx.any_alike(np.array([1.0, 2.0, 3.0]), 4.0)
    assert type(single) is bool and single is False
    idx.append(np.array([[1.0, 2.0, 3.0]]), np.array([4.0]))
    assert idx.any_alike(np.array([2.0, 4.0, 6.0]), 8.0) is True


def test_stacked_query_with_a_zero_row_raises():
    idx = SimilarityIndex.from_inequalities([Inequality([1.0, 0.0], 1.0)], 2, 0.35, 100.0)
    with pytest.raises(ValueError):
        idx.any_alike(np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        idx.append(np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([1.0, 1.0]))
    assert len(idx) == 1


# --- the shared pair shortlist versus a brute-force pair list -----------------


def unit_triple(A, B):
    """(unit rows, halves, offsets) as the validator holds them: a zeroed
    row stays a zero unit row with offset 0, and a row whose norm overflows
    becomes one too."""
    with np.errstate(over="ignore"):
        norms = row_norms(A)
    norms[norms == 0.0] = 1.0
    units = A / norms[:, None]
    return units, row_sumsq(units) / 2.0, B / norms


@pytest.mark.parametrize("n", INDEX_NS)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 30),
    kq=st.integers(1, 30),
    spread=st.sampled_from([0.0, 1e-3, 0.05, 0.2, 1.0]),
    l_max=st.floats(0.01, 0.7),
    s_min=st.floats(1.0, 150.0),
    case=st.sampled_from(["other", "same", "axis"]),
)
@settings(max_examples=60, deadline=None)
def test_near_pairs_keeps_every_alike_pair_in_query_then_row_order(
    n, seed, k, kq, spread, l_max, s_min, case
):
    # planted near-duplicates around three bases, one zeroed row and one row
    # scaled so its norm overflows per stack; the queries are a second such
    # stack, or the rows themselves, as in the validator and within an
    # index's stack; for "axis" the rows are the explicit stack of coef * e_j
    # with offset rhs, and the queries lie around three of them with offsets
    # on both sides of s_min, so axis_pairs can be checked against near_pairs
    gen = np.random.default_rng(seed)
    bases = [(gen.standard_normal(n), float(gen.uniform(-100.0, 100.0))) for _ in range(3)]
    coef, rhs = float(gen.choice([1.0, -1.0])), float(gen.uniform(-100.0, 100.0))
    reach = s_min
    if case == "axis":
        bases = [(coef * np.eye(n)[j], rhs) for j in gen.integers(n, size=3)]
        reach = 2.0 * s_min

    def stack(count):
        rows = []
        for _ in range(count):
            v, beta = bases[int(gen.integers(3))]
            shift = gen.uniform(-reach, reach)
            rows.append(near_row(gen, v / float(row_norms(v)), beta, spread, shift, 1.0))
        A = np.stack([a for a, _ in rows])
        B = np.array([b for _, b in rows])
        zero, big = gen.integers(count, size=2)
        A[big] *= 1e200
        B[big] *= 1e200
        A[zero] = 0.0
        B[zero] = 0.0
        return unit_triple(A, B)

    if case == "axis":
        rows = unit_triple(coef * np.eye(n), np.full(n, rhs))
    else:
        rows = stack(k)
    queries = rows if case == "same" else stack(kq)
    units, _, offsets = rows
    q_units, q_halves, q_offsets = queries
    want = [
        (i, j)
        for i in range(len(q_units))
        for j in range(len(units))
        if float(row_norms(units[j] - q_units[i])) < l_max
        and abs(offsets[j] - q_offsets[i]) < s_min
    ]
    qi, ri = near_pairs(rows, queries, l_max, s_min)
    got = list(zip(qi.tolist(), ri.tolist()))
    assert got == sorted(set(got))  # query then row, each pair once
    assert set(want) <= set(got)
    assert all(abs(offsets[j] - q_offsets[i]) < s_min for i, j in got)
    # the (later, earlier) pairs within the rows, walked a slab at a time
    within = [(i, j) for i in range(len(units)) for j in range(i)
              if float(row_norms(units[j] - units[i])) < l_max
              and abs(offsets[j] - offsets[i]) < s_min]
    for slab in (1, 7, 256):
        with mock.patch.object(geometry, "_PAIR_BLOCK", slab):
            walked = [(i, j) for later, earlier in stack_pairs(rows, l_max, s_min)
                      for i, j in zip(later.tolist(), earlier.tolist())]
        assert walked == sorted(set(walked))  # later then earlier, each pair once
        assert all(j < i and abs(offsets[j] - offsets[i]) < s_min for i, j in walked)
        assert set(within) <= set(walked)
    if case == "axis":
        qi, ji = axis_pairs(queries, coef, rhs, l_max, s_min)
        axis = list(zip(qi.tolist(), ji.tolist()))
        assert axis == sorted(set(axis))
        assert set(want) <= set(axis)
        # both cut the same product coef * u_j, at cuts an ulp or so apart
        cut = direction_cut(q_halves + 0.5, l_max)
        assert all(abs(coef * q_units[i, j] - cut[i]) < 1e-12 for i, j in set(axis) ^ set(got))
