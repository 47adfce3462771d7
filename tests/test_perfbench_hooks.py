"""The benchmark's tracer (perfbench/spans.py) patches randlp's layer
boundaries by name.  These checks keep a rename in src/ from breaking only
a traced benchmark run."""
import importlib.util
from pathlib import Path

from randlp import GeneratorParams, generate_parallel, generate_sequential, validate_instance
from randlp import generator, geometry, rng, validator

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Every (owner, attribute) the tracer is known to wrap.
HOOKS = {
    (rng.RngStream, "raw_words"),
    (geometry.SimilarityIndex, "any_alike"),
    (geometry.SimilarityIndex, "append"),
    (geometry.SimilarityIndex, "from_inequalities"),
    (generator, "build_support"),
    (validator, "build_support"),
    (validator, "likeness"),
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_hook_and_restores_it():
    owners = {owner for owner, _ in HOOKS}
    before = {owner: dict(vars(owner)) for owner in owners}
    params = GeneratorParams(n=3, d=4, seed=1)
    plain, _ = generate_sequential(params)

    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for owner, attr in HOOKS:
            assert vars(owner)[attr] is not before[owner][attr], attr
        traced, _ = generate_sequential(params)
        assert validate_instance(traced).ok
    finally:
        tracer.uninstall()

    assert traced == plain
    # nothing on this path builds the bounding rows, so no support span
    assert {span[1] for span in tracer.spans} >= {"rng", "geometry.any_alike"}
    for owner in owners:
        after = vars(owner)
        assert after.keys() == before[owner].keys()
        assert all(after[k] is v for k, v in before[owner].items())


def test_traced_parallel_run_shows_the_coordinators_layer():
    # perfbench/tests asserts the same on tall-par, outside this suite's testpaths
    spans = load_spans()
    params = GeneratorParams(n=10, d=100, seed=1, workers=2)
    plain, _ = generate_parallel(params)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, _ = tracer.call("generator", generate_parallel, params)
    finally:
        tracer.uninstall()
    assert traced == plain
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["geometry.any_alike.calls"] > 0
    assert metrics["geometry.rows_compared.accepted"] > 0
    assert metrics["generator.busy_s"] > 0
