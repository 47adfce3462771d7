"""Span tracing of randlp's layers, recorded from outside the package.

A ``Tracer`` replaces a handful of public functions and methods of randlp
with wrappers that record one span per call: name, start, end, thread,
parent span, instance id and a small work count.  Spans stay in memory
until the run ends; ``layer_metrics`` turns the spans of one pass into the
per-layer figures.  ``uninstall`` puts the original callables back, so an
untraced pass in the same process runs the unmodified code.

Layer boundaries, and where their spans come from:

    rng        RngStream.raw_words                      (work: words drawn)
    geometry   SimilarityIndex.any_alike                (work: rows compared)
               SimilarityIndex.append
    support    build_support, as called by the generator and the validator
    validator  likeness, as called by the validator     (the pair rechecks)
    generator, io.write, io.read, validator
               the benchmark's own calls to the engine, instance_to_text,
               read_instance and validate_instance       (see Tracer.call)
"""
from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict

# Attribute set on a SimilarityIndex built by from_inequalities: the number
# of rows it held when built.  Both engines build an index from the bounding
# rows only and append accepted rows later, so rows present at build time
# are bounding rows and rows appended afterwards are accepted rows.
_BOUNDING = "_perfbench_bounding_rows"


def self_time(t0: float, t1: float, children) -> float:
    """Duration of [t0, t1] minus the part covered by the child intervals.

    Children may nest, overlap or stick out of the parent's interval; each
    instant of the parent is subtracted at most once.
    """
    covered = 0.0
    end = t0
    for c0, c1 in sorted(children):
        c0 = max(c0, end)
        c1 = min(c1, t1)
        if c1 > c0:
            covered += c1 - c0
            end = c1
    return (t1 - t0) - covered


class Tracer:
    def __init__(self):
        # (span id, name, start, end, thread ident, parent id, instance, work)
        self.spans: list[tuple] = []
        self.instance = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, work=None):
        spans, ids, now, ident = self.spans, self._ids, time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            stack = self._stack()
            # A call on a pool thread has no span of its own thread above
            # it; its parent is the top-level call the caller is inside.
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            stack.append(sid)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                spans.append((sid, name, t0, t1, ident(), parent, self.instance,
                              work(args) if work else None))

        return traced

    def call(self, name, fn, *args, work=None):
        """Run fn(*args) as a top-level span of the current instance.

        ``work`` maps the result to the span's work count."""
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        self._root = sid
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._root = None
        self.spans.append((sid, name, t0, t1, threading.get_ident(), None, self.instance,
                           work(result) if work else None))
        return result

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap randlp's layer boundaries; undone by ``uninstall``."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        rng = importlib.import_module("randlp.rng")
        geometry = importlib.import_module("randlp.geometry")
        generator = importlib.import_module("randlp.generator")
        validator = importlib.import_module("randlp.validator")
        index = geometry.SimilarityIndex

        self._patch(rng.RngStream, "raw_words",
                    self._wrap(rng.RngStream.raw_words, "rng", work=lambda a: int(a[1])))
        self._patch(index, "any_alike",
                    self._wrap(index.any_alike, "geometry.any_alike",
                               work=lambda a: (len(a[0]), getattr(a[0], _BOUNDING, 0))))
        self._patch(index, "append", self._wrap(index.append, "geometry.append"))
        build = vars(index)["from_inequalities"].__func__

        def from_inequalities(cls, *args, **kwargs):
            idx = build(cls, *args, **kwargs)
            setattr(idx, _BOUNDING, len(idx))
            return idx

        self._patch(index, "from_inequalities", classmethod(from_inequalities))
        for module in (generator, validator):
            self._patch(module, "build_support", self._wrap(module.build_support, "support"))
        self._patch(validator, "likeness", self._wrap(validator.likeness, "validator.likeness"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_metrics(spans) -> dict:
    """Per-layer figures from the spans of one pass.

    Times are seconds summed over the pass; counts are exact.  The
    generator's self time is the engine span minus its child spans on the
    caller's thread, so for the parallel engine it holds dispatch, waiting
    for the pool and the coordinator's own work.
    """
    busy = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    children = defaultdict(list)
    for sid, name, t0, t1, thread, parent, _inst, w in spans:
        busy[name] += t1 - t0
        calls[name] += 1
        if parent is not None:
            children[parent, thread].append((t0, t1))
        if name == "geometry.any_alike":
            rows, bounding = w
            work["rows.bounding"] += min(rows, bounding)
            work["rows.accepted"] += rows - min(rows, bounding)
            key = "any_alike.bounding" if bounding else "any_alike.accepted"
            busy[key] += t1 - t0
        elif w is not None:
            work[name] += w

    gen_self = sum(
        self_time(t0, t1, children[sid, thread])
        for sid, name, t0, t1, thread, *_ in spans
        if name == "generator"
    )
    gen_busy = busy["generator"]
    return {
        "rng.calls": calls["rng"],
        "rng.words": work["rng"],
        "rng.busy_s": busy["rng"],
        "generator.busy_s": gen_busy,
        "generator.self_s": gen_self,
        "geometry.any_alike.calls": calls["geometry.any_alike"],
        "geometry.any_alike.busy_s": busy["geometry.any_alike"],
        "geometry.any_alike.busy_s.bounding": busy["any_alike.bounding"],
        "geometry.any_alike.busy_s.accepted": busy["any_alike.accepted"],
        "geometry.any_alike.share_of_gen": busy["geometry.any_alike"] / gen_busy if gen_busy else 0.0,
        "geometry.rows_compared.bounding": work["rows.bounding"],
        "geometry.rows_compared.accepted": work["rows.accepted"],
        "geometry.append.busy_s": busy["geometry.append"],
        "support.busy_s": busy["support"],
        "io.write.busy_s": busy["io.write"],
        "io.write.bytes": work["io.write"],
        "io.read.busy_s": busy["io.read"],
        "io.read.mb_per_s": work["io.read"] / busy["io.read"] / 1e6 if busy["io.read"] else 0.0,
        "validator.busy_s": busy["validator"],
        "validator.rechecks": calls["validator.likeness"],
    }

