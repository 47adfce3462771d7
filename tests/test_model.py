from dataclasses import fields, replace

import numpy as np
import pytest

from randlp import (
    GenerationStats,
    GeneratorParams,
    Inequality,
    LPInstance,
    build_objective,
    build_support,
    generate_sequential,
    validate_params,
)
from randlp.model import BoundingBlock, ParameterError, bound_violations

from conftest import instance_from_rows, make_params, with_rows


def test_default_demo_params_are_valid():
    assert validate_params(GeneratorParams(n=2, d=5)) == []


def test_theta_above_half_alpha_rejected():
    violations = validate_params(make_params(theta=150.0))
    assert "theta <= alpha/2" in violations


def test_lmax_above_bound_rejected():
    violations = validate_params(make_params(l_max=0.8))
    assert "l_max <= 0.7" in violations


def test_rho_must_be_below_theta():
    assert "rho < theta" in validate_params(make_params(rho=100.0))
    assert "rho < theta" in validate_params(make_params(rho=130.0))
    # a theta that fails its own condition is reported alone
    assert validate_params(GeneratorParams(n=2, theta=-1.0)) == ["theta > 0"]


def test_violations_reported_collectively():
    violations = validate_params(make_params(n=0, d=-1, theta=150.0, l_max=0.9))
    assert {"n >= 1", "d >= 0", "theta <= alpha/2", "l_max <= 0.7"} <= set(violations)


def test_positivity_checks():
    for name in ("alpha", "theta", "rho", "l_max", "s_min", "a_max", "b_max"):
        violations = validate_params(make_params(**{name: 0.0}))
        assert f"{name} > 0" in violations, name


def test_seed_and_workers_bounds():
    assert "0 <= seed < 2**64" in validate_params(make_params(seed=-1))
    assert "0 <= seed < 2**64" in validate_params(make_params(seed=2**64))
    assert validate_params(make_params(seed=2**64 - 1)) == []
    assert "workers >= 1" in validate_params(make_params(workers=0))
    assert "max_attempts >= 1" in validate_params(make_params(max_attempts=0))


def test_validate_params_is_pure():
    p = make_params(theta=150.0, rho=200.0)
    assert validate_params(p) == validate_params(p)


def test_inequality_is_immutable_and_value_equal():
    q = Inequality(np.array([1.0, 2.0]), 3.0)
    with pytest.raises(ValueError):
        q.a[0] = 9.0
    assert q == Inequality([1.0, 2.0], 3.0)
    assert q != Inequality([1.0, 2.0], 4.0)
    assert q != Inequality([1.0, 2.5], 3.0)
    assert hash(q) == hash(Inequality([1.0, 2.0], 3.0))


def test_inequality_copies_its_input():
    src = np.array([1.0, 2.0])
    q = Inequality(src, 0.0)
    src[0] = 7.0
    assert q.a[0] == 1.0
    assert src.flags.writeable


def test_instance_counts_and_equality():
    n = 2
    support = tuple(build_support(n, 200.0))
    c = build_objective(n, 100.0)
    extra = (Inequality([1.0, 2.0], 400.0),)
    p = GeneratorParams(n=n, d=1)
    inst = instance_from_rows(n=n, support=support, random=extra, c=c, params=p)
    assert inst.m == 2 * n + 1 + 1
    assert inst.d == 1
    assert inst.constraints == support + extra

    # params do not take part in equality; content does
    other = instance_from_rows(n=n, support=support, random=extra, c=c,
                               params=GeneratorParams(n=n, d=1, seed=999))
    assert inst == other
    changed = instance_from_rows(n=n, support=support,
                                 random=(Inequality([1.0, 2.0], 401.0),), c=c, params=p)
    assert inst != changed


def test_m_identity_holds_for_synthetic_instances():
    for n in (1, 3, 7):
        for d in (0, 2, 9):
            support = tuple(build_support(n, 200.0))
            extra = tuple(
                Inequality(np.full(n, 1.0 + i), 1000.0 + i) for i in range(d)
            )
            inst = instance_from_rows(n=n, support=support, random=extra,
                                      c=build_objective(n, 100.0),
                                      params=GeneratorParams(n=n, d=d))
            assert inst.m == 2 * n + 1 + d


def test_stats_defaults():
    s = GenerationStats(10, 4, 3, 3)
    assert s.coordinator_rejected_similarity == 0
    assert s.discarded_surplus == 0
    assert s.rounds == 0
    assert s.candidates_drawn == 10


@pytest.mark.parametrize("name", ["alpha", "theta", "rho", "l_max", "s_min", "a_max", "b_max"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_float_parameters_must_be_finite(name, value):
    assert f"{name} finite" in validate_params(make_params(**{name: value}))


def test_n1_needs_bounding_rows_s_min_apart():
    # at n = 1, rows x <= alpha and x <= alpha/2 share a unit normal, alpha/2 apart
    assert "s_min <= alpha/2 when n = 1" in validate_params(GeneratorParams(n=1, d=0, s_min=150.0))
    assert validate_params(GeneratorParams(n=1, d=0, s_min=100.0)) == []
    assert validate_params(GeneratorParams(n=2, d=0, s_min=150.0)) == []


def test_overflowing_diagonal_rhs_rejected():
    # (n-1)*alpha + alpha/2 is 2.5e308 at n = 3 but 1.5e308 at n = 2; an
    # a_max of 0.1 keeps 2*(n*a_max*alpha/2 + b_max) finite at both, and a
    # theta of 0.01 keeps 6*theta*alpha/2*n*(n+1)/2 finite at both
    huge = dict(d=0, alpha=1e308, theta=0.01, rho=0.001, s_min=1e300, a_max=0.1, b_max=1.0)
    assert validate_params(GeneratorParams(n=3, **huge)) == ["(n-1)*alpha + alpha/2 finite"]
    assert validate_params(GeneratorParams(n=2, **huge)) == []
    assert "(n-1)*alpha + alpha/2 finite" in validate_params(GeneratorParams(n=10**400))


def test_a_max_whose_square_underflows_is_refused():
    # every coefficient squares to 0, so every draw is a zero-norm row that
    # is skipped without counting toward the stall budget: no run would end
    tiny = GeneratorParams(n=2, d=1, a_max=1e-200, max_attempts=1000)
    assert validate_params(tiny) == ["a_max*a_max > 0"]
    with pytest.raises(ParameterError, match=r"a_max\*a_max > 0"):
        generate_sequential(tiny)
    # squares of 1e-161 are subnormal but nonzero
    assert validate_params(GeneratorParams(n=2, d=1, a_max=1e-161)) == []


def test_bound_violations_hold_the_n1_rule():
    assert bound_violations(GeneratorParams(n=1, d=0, s_min=150.0)) == ["s_min <= alpha/2 when n = 1"]
    assert bound_violations(GeneratorParams(n=1, d=0, s_min=100.0)) == []
    assert bound_violations(GeneratorParams(n=2, d=0, s_min=150.0)) == []


def test_array_backed_instance_equals_the_one_built_from_tuples():
    n = 3
    inst, _ = generate_sequential(GeneratorParams(n=n, d=4, seed=1))
    assert inst.bounding.edits == {}
    assert inst.random_a.shape == (4, n) and not inst.random_a.flags.writeable
    # the tuples are built on first use and cached
    assert "support" not in vars(inst)
    assert inst.support == tuple(build_support(n, 200.0))
    assert inst.support is inst.support
    assert inst.constraints == inst.support + inst.random
    twin = instance_from_rows(n=n, support=inst.support, random=inst.random, c=inst.c,
                              params=inst.params)
    assert twin == inst and inst == twin
    assert (twin.m, twin.d) == (inst.m, inst.d) == (2 * n + 1 + 4, 4)


def test_instance_equality_is_per_row_value_equality():
    n = 2
    base = instance_from_rows(n=n, support=build_support(n, 200.0),
                              random=(Inequality([1.0, 0.0], 5.0),),
                              c=build_objective(n, 100.0), params=GeneratorParams(n=n, d=1))
    minus_zero = with_rows(base, random=(Inequality([1.0, -0.0], 5.0),))
    assert minus_zero == base
    support = list(base.support)
    support[3] = Inequality([-0.0, -1.0], 0.0)
    assert with_rows(base, support=tuple(support)) == base
    nan = with_rows(base, random=(Inequality([1.0, np.nan], 5.0),))
    assert nan != with_rows(base, random=(Inequality([1.0, np.nan], 5.0),))
    support[3] = Inequality([0.0, -1.0], np.nan)
    assert with_rows(base, support=tuple(support)) != with_rows(base, support=tuple(support))


def test_non_canonical_bounding_rows_keep_their_bits():
    n = 2
    support = build_support(n, 200.0)
    support[2] = Inequality([-1.0, -0.0], 0.0)
    inst = instance_from_rows(n=n, support=support, random=(), c=build_objective(n, 100.0),
                              params=GeneratorParams(n=n))
    assert list(inst.bounding.edits) == [2]
    rebuilt = LPInstance(n, inst.bounding, inst.random_a, inst.random_b, inst.c, inst.params)
    assert rebuilt.support[2].a.tobytes() == support[2].a.tobytes()


def test_replacing_params_keeps_the_rows_and_builds_none():
    inst, _ = generate_sequential(GeneratorParams(n=4, d=3, seed=2))
    other = replace(inst, params=replace(inst.params, l_max=0.2))
    assert other.params.l_max == 0.2
    assert other.bounding is inst.bounding and other.random_a is inst.random_a
    assert "support" not in vars(other)
    assert other == inst
    # the block is kept for alpha 200; another alpha would make its closed
    # form rows other than the canonical rows of the instance
    with pytest.raises(ValueError, match="kept for alpha = 200.0, not params.alpha = 64.0"):
        replace(inst, params=replace(inst.params, alpha=64.0))


def test_replacing_params_of_a_wide_instance_builds_no_row(monkeypatch):
    inst, _ = generate_sequential(GeneratorParams(n=2000, d=2, seed=1))

    def refused(self, i):
        raise AssertionError("replace built a bounding row")

    monkeypatch.setattr(BoundingBlock, "row", refused)
    q = replace(inst.params, rho=25.0, s_min=50.0)
    other = replace(inst, params=q)
    assert other.params is q
    assert other == inst
    with pytest.raises(ValueError, match="kept for alpha = 200.0, not params.alpha = 300.0"):
        replace(inst, params=replace(q, alpha=300.0))


def test_the_fields_are_the_storage():
    assert [f.name for f in fields(LPInstance)] == [
        "n", "bounding", "random_a", "random_b", "c", "params"
    ]


def test_random_rows_must_have_n_coefficients():
    with pytest.raises(ValueError, match="random rows of 3 coefficients"):
        instance_from_rows(n=3, support=build_support(3, 200.0),
                           random=(Inequality([1.0, 2.0], 5.0),),
                           c=build_objective(3, 100.0), params=GeneratorParams(n=3))


def test_inequality_needs_a_1d_row():
    with pytest.raises(ValueError, match="expected a 1-D coefficient vector"):
        Inequality(np.ones((2, 2)), 5.0)


def test_random_rows_need_one_rhs_each():
    inst, _ = generate_sequential(GeneratorParams(n=3, d=4, seed=1))
    with pytest.raises(ValueError, match="expected one right-hand side per random row"):
        LPInstance(inst.n, inst.bounding, inst.random_a, inst.random_b[:-1], inst.c, inst.params)


def _parts():
    """The parts of a valid n=2 instance: n, bounding rows, random rows as a
    tuple and as arrays, objective and parameters."""
    random = (Inequality([1.0, 2.0], 400.0),)
    return dict(n=2, support=tuple(build_support(2, 200.0)), random=random,
                a=np.array([[1.0, 2.0]]), b=np.array([400.0]),
                c=build_objective(2, 100.0), params=GeneratorParams(n=2, d=1))


def _short_row(support):
    rows = list(support)
    rows[3] = Inequality(rows[3].a[:-1], rows[3].b)
    return tuple(rows)


# each case as a change of the parts of a valid n=2 instance, and the
# refusal; a block is built from the support rows at params.alpha unless the
# case gives one
MALFORMED = {
    "n = 0": (dict(n=0, support=(Inequality(np.empty(0), -100.0),), random=(),
                   a=np.empty((0, 0)), b=np.empty(0), c=np.empty(0),
                   params=GeneratorParams(n=0)), "expected n >= 1, got 0"),
    "c of n-1 entries": (dict(c=np.array([100.0])), "an objective of 2 coefficients, got 1"),
    "2n support rows": (dict(support=tuple(build_support(2, 200.0))[:-1]),
                        "expected 2n\\+1 = 5 bounding rows, got 4"),
    "2n+2 support rows": (dict(support=tuple(build_support(2, 200.0))
                               + (Inequality([1.0, 1.0], 900.0),)),
                          "expected 2n\\+1 = 5 bounding rows, got 6"),
    "bounding row of n-1 coefficients": (dict(support=_short_row(build_support(2, 200.0))),
                                         "bounding row 3: expected 2 coefficients, got 1"),
    "block of another n": (dict(block=BoundingBlock.canonical(3, 200.0)),
                           "a bounding block of n = 2, got 3"),
    "block of another alpha": (dict(block=BoundingBlock.canonical(2, 100.0)),
                               "kept for alpha = 100.0, not params.alpha = 200.0"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_shapes_are_refused_at_construction(case):
    changes, match = MALFORMED[case]
    parts = _parts()
    parts.update(changes)
    n, params = parts["n"], parts["params"]
    if "block" not in parts:
        with pytest.raises(ValueError, match=match):
            instance_from_rows(n=n, support=parts["support"], random=parts["random"],
                               c=parts["c"], params=params)
        # from arrays, the rows that from_rows refuses never make a block
        with pytest.raises(ValueError, match=match):
            block = BoundingBlock.from_rows(n, params.alpha, parts["support"])
            LPInstance(n, block, parts["a"], parts["b"], parts["c"], params)
    else:
        # a tuple of rows is always read for its own n, under params.alpha
        with pytest.raises(ValueError, match=match):
            LPInstance(n, parts["block"], parts["a"], parts["b"], parts["c"], params)
    if case == "block of another alpha":
        good = _parts()
        inst = instance_from_rows(n=2, support=good["support"], random=good["random"],
                                  c=good["c"], params=good["params"])
        with pytest.raises(ValueError, match="kept for alpha = 200.0, not params.alpha = 100.0"):
            replace(inst, params=replace(inst.params, alpha=100.0))


@pytest.mark.parametrize("i", [-1, 5, 6])
def test_an_edit_outside_the_block_is_refused(i):
    # at n = 2 row 5 is random row 0, which an edit must not shadow
    inst, _ = generate_sequential(GeneratorParams(n=2, d=2, seed=42))
    with pytest.raises(ValueError, match=f"bounding row {i}: expected an index in 0..4"):
        BoundingBlock(2, inst.params.alpha, {i: inst.row(5)})


@pytest.mark.parametrize("width", [1, 3])
def test_an_edit_of_other_than_n_coefficients_is_refused(width):
    row = Inequality(np.ones(width), 900.0)
    with pytest.raises(ValueError, match=f"bounding row 4: expected 2 coefficients, got {width}"):
        BoundingBlock(2, 200.0, {4: row})


@pytest.mark.parametrize("other", [1, 3])
def test_params_of_another_n_are_refused(other):
    parts = _parts()
    params = replace(parts["params"], n=other)
    match = f"expected params of n = 2, got {other}"
    with pytest.raises(ValueError, match=match):
        instance_from_rows(n=2, support=parts["support"], random=parts["random"], c=parts["c"],
                           params=params)
    block = BoundingBlock.canonical(2, 200.0)
    with pytest.raises(ValueError, match=match):
        LPInstance(2, block, parts["a"], parts["b"], parts["c"], params)
    with pytest.raises(ValueError, match=match):
        replace(LPInstance(2, block, parts["a"], parts["b"], parts["c"], parts["params"]),
                params=params)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_a_non_finite_alpha_still_builds_from_tuples(alpha):
    # the validator reports such an instance as structural, so it must exist
    parts = _parts()
    inst = instance_from_rows(n=2, support=parts["support"], random=parts["random"],
                              c=parts["c"], params=replace(parts["params"], alpha=alpha))
    assert np.float64(inst.bounding.alpha).tobytes() == np.float64(alpha).tobytes()
    assert replace(inst, params=replace(inst.params, l_max=0.2)).params.l_max == 0.2


def test_equality_with_another_type_is_not_implemented():
    inst, _ = generate_sequential(GeneratorParams(n=2, d=1, seed=1))
    for x in (inst, inst.bounding, inst.random[0]):
        assert x.__eq__("x") is NotImplemented
        assert x != "x"


def test_blocks_of_another_n_differ():
    assert BoundingBlock.canonical(2, 200.0) != BoundingBlock.canonical(3, 200.0)


def test_an_unknown_attribute_is_an_attribute_error():
    inst, _ = generate_sequential(GeneratorParams(n=2, d=1, seed=1))
    assert not hasattr(inst, "nope")
    assert "nope" not in vars(inst)


def test_repr_names_the_instance_and_builds_no_row(monkeypatch):
    inst, _ = generate_sequential(GeneratorParams(n=2000, d=5, seed=1))

    def refused(self, i):
        raise AssertionError("repr built a bounding row")

    monkeypatch.setattr(BoundingBlock, "row", refused)
    assert repr(inst) == "LPInstance(n=2000, d=5, alpha=200.0, seed=1, edits=0)"
    assert "support" not in vars(inst) and "random" not in vars(inst)


def test_comparing_an_edited_wide_instance_builds_only_its_edits(monkeypatch):
    inst, _ = generate_sequential(GeneratorParams(n=4000, d=2, seed=1))
    row0 = Inequality(np.eye(4000)[0], 199.0)
    edited = replace(inst, bounding=BoundingBlock(4000, 200.0, {0: row0}))

    def refused(self):
        raise AssertionError("equality built every bounding row")

    monkeypatch.setattr(BoundingBlock, "rows", refused)
    assert edited == replace(inst, bounding=BoundingBlock(4000, 200.0, {0: row0}))
    assert edited != inst and inst != edited
    # an edit equal to its canonical row, -0.0 in it, is equal to it
    same = Inequality(np.where(np.eye(4000)[0] == 0.0, -0.0, 1.0), 200.0)
    assert replace(inst, bounding=BoundingBlock(4000, 200.0, {0: same})) == inst


def _row_by_row(x, y):
    """The reference: every bounding row of both blocks built and compared."""
    return x.n == y.n and all(q == r for q, r in zip(x.rows(), y.rows()))


def _equality_cases():
    n = 2
    nan = float("nan")
    # alphas one ulp apart whose diagonals round to the same right-hand side
    a = 729.7670644230144
    b = float(np.nextafter(a, np.inf))
    diagonal = BoundingBlock.canonical(n, a).spec(2 * n)
    assert a != b and diagonal == BoundingBlock.canonical(n, b).spec(2 * n)
    axes_a = {i: BoundingBlock.canonical(n, 1.0).row(i) for i in range(n)}
    axes_b = dict(axes_a)
    axes_b[1] = Inequality([0.0, 1.0], 2.0)
    # edits equal to their canonical rows at alpha 200, one with -0.0 in it
    as_canonical = {2: Inequality([-1.0, -0.0], -0.0), 4: Inequality([1.0, 1.0], 300.0)}
    return [
        BoundingBlock.canonical(n, 200.0),
        BoundingBlock.canonical(n, -0.0),
        BoundingBlock.canonical(n, 0.0),
        BoundingBlock.canonical(n, nan),
        BoundingBlock(n, nan, {**axes_a, 4: Inequality([1.0, 1.0], 1.5)}),
        BoundingBlock(n, 200.0, as_canonical),
        BoundingBlock(n, 200.0, {0: Inequality([1.0, -0.0], 200.0)}),
        BoundingBlock(n, 200.0, {3: Inequality([0.0, -1.0], nan)}),
        BoundingBlock(n, a, axes_a),
        BoundingBlock(n, b, axes_a),
        BoundingBlock(n, b, axes_b),
        BoundingBlock(n, a, {}),
        BoundingBlock.canonical(3, 200.0),
    ]


def test_block_equality_matches_the_row_by_row_reference():
    blocks = _equality_cases()
    verdicts = [(x == y, _row_by_row(x, y)) for x in blocks for y in blocks]
    assert all(got == want for got, want in verdicts)
    # the cases hold equal and unequal pairs besides each block and itself
    assert sum(want for _, want in verdicts) > len(blocks)
    assert blocks[5] == blocks[0]
    # every x_j <= alpha row edited alike, and diagonals that round equal
    assert blocks[8] == blocks[9] and blocks[8] != blocks[10] and blocks[11] != blocks[9]
