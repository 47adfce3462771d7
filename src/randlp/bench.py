"""Worker-count scaling measurement."""
from __future__ import annotations

import statistics
from dataclasses import dataclass, replace

from .generator import generate_parallel
from .model import GeneratorParams, refuse, validate_params


@dataclass(frozen=True)
class BenchResult:
    worker_count: int
    wall_time_ms: float     # median over the repetitions
    speedup: float          # baseline median / this median


def run_benchmark(
    params: GeneratorParams,
    worker_counts,
    repetitions: int = 3,
) -> list[BenchResult]:
    """Median wall time of generate_parallel per worker count.

    The baseline is the median of the 1-worker runs when 1 is among the
    counts, otherwise the first count's median.  One worker is the
    sequential engine (stream 0), so a 1-worker baseline gives the speedup
    over the sequential run; L >= 2 workers run streams 1..L.  The generated
    instances are the deterministic outputs for (seed, workers), so callers
    can revalidate any benchmark output by regenerating with the same
    parameters.  Every count is checked before the first run: the first
    parameter set that ``validate_params`` refuses raises ``ParameterError``.
    """
    counts = [int(x) for x in worker_counts]
    if not counts:
        raise ValueError("worker_counts must be non-empty")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    runs = [replace(params, workers=count) for count in counts]
    for p in runs:
        refuse(validate_params(p))
    medians: dict[int, float] = {}
    for count, p in zip(counts, runs):
        samples = []
        for _ in range(repetitions):
            _, stats = generate_parallel(p)
            samples.append(stats.wall_time_ms)
        medians[count] = statistics.median(samples)
    base = medians[1] if 1 in medians else medians[counts[0]]
    out = []
    for count in counts:
        med = medians[count]
        speedup = base / med if med > 0 else float("inf")
        out.append(BenchResult(count, med, speedup))
    return out
