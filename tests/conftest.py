import numpy as np
import pytest

from randlp import GeneratorParams, LPInstance
from randlp.model import BoundingBlock


@pytest.fixture
def demo_params():
    """The standard 2-D demonstration setup."""
    return GeneratorParams(n=2, d=5, seed=42)


def make_params(**kw) -> GeneratorParams:
    base = dict(n=2, d=5, seed=42)
    base.update(kw)
    return GeneratorParams(**base)


def rng(seed=0):
    return np.random.default_rng(seed)


def instance_from_rows(n, support, random, c, params) -> LPInstance:
    """The instance of the 2n+1 bounding rows ``support`` and the random
    rows ``random``, both sequences of ``Inequality``, read as given under
    ``params.alpha``: a bounding row bitwise canonical is held in closed
    form, any other is kept as an edit."""
    random = tuple(random)
    a = np.stack([q.a for q in random]) if random else np.empty((0, n))
    b = np.array([q.b for q in random], dtype=np.float64)
    return LPInstance(n, BoundingBlock.from_rows(n, params.alpha, support), a, b, c, params)


def with_rows(inst, **changes) -> LPInstance:
    """inst with some of its ``support``, ``random``, ``c`` and ``params``
    changed, every row read as given under the resulting ``params.alpha``:
    under another alpha the old canonical rows become edits."""
    parts = dict(n=inst.n, support=inst.support, random=inst.random, c=inst.c,
                 params=inst.params)
    parts.update(changes)
    return instance_from_rows(**parts)
