"""An LP-solve oracle: generated instances solved by an outside solver.

Over the bounding system alone the maximizer of c.x is the vertex
x* = (alpha, ..., alpha, alpha/2).  A generated instance must be feasible
and bounded, its optimum can be no better than c.x*, and it equals c.x*
exactly when no random row cuts x* off (a.x* > b): x* is then still
feasible, and it is the bounding system's only maximizer otherwise.
"""
import numpy as np
import pytest

from randlp import GeneratorParams, generate_parallel, generate_sequential

linprog = pytest.importorskip("scipy.optimize").linprog

REL = 1e-9


def solve(params):
    engine = generate_parallel if params.workers > 1 else generate_sequential
    inst, _ = engine(params)
    a = np.array([q.a for q in inst.constraints])
    b = np.array([q.b for q in inst.constraints])
    res = linprog(-inst.c, A_ub=a, b_ub=b, bounds=(None, None), method="highs")
    x_star = np.full(params.n, params.alpha)
    x_star[-1] = params.alpha / 2
    cuts = sum(float(q.a @ x_star) > q.b for q in inst.random)
    return res, float(inst.c @ x_star), cuts


@pytest.mark.parametrize("params", [
    GeneratorParams(n=2, d=5, seed=42),
    GeneratorParams(n=3, d=8, seed=11),
    GeneratorParams(n=10, d=20, seed=0),
    GeneratorParams(n=10, d=20, seed=3, workers=3),
    GeneratorParams(n=50, d=20, seed=1),
    # b_max = 1e6 puts the random hyperplanes near x*, so they cut it often
    GeneratorParams(n=2, d=5, seed=1, b_max=1e6),
    GeneratorParams(n=10, d=20, seed=0, b_max=1e6),
    GeneratorParams(n=10, d=20, seed=1, b_max=1e6),
    GeneratorParams(n=50, d=20, seed=2, b_max=1e6),
])
def test_optimum_is_bounded_by_the_bounding_vertex(params):
    res, best, cuts = solve(params)
    assert res.status == 0, res.message
    optimum = -res.fun
    assert optimum <= best * (1 + REL)
    if cuts:
        assert optimum < best * (1 - REL)
    else:
        assert optimum == pytest.approx(best, rel=REL)


def test_rows_cut_the_bounding_vertex_at_a_large_b_max():
    res, best, cuts = solve(GeneratorParams(n=10, d=20, seed=0, b_max=1e6))
    assert cuts == 9
    assert best == 1090000.0
    assert -res.fun == pytest.approx(966084.0, abs=1.0)
