"""Random feasible bounded linear programming problem generator.

The package builds LP instances of the form  maximize c.x  s.t.  A x <= b
whose feasible region is bounded, contains a known interior point, and whose
random extra constraints each cut the region without emptying it.  Generation
is deterministic per (seed, workers) pair.
"""
from .bench import BenchResult, run_benchmark
from .cli import run_cli
from .generator import (
    CandidateVerdict,
    GenerationStalledError,
    draw_candidate,
    filter_candidate,
    generate_parallel,
    generate_sequential,
)
from .geometry import (
    SimilarityIndex,
    distance_to_center,
    hypercube_center,
    likeness,
    objective_value,
    project_center,
)
from .io import (
    ParseError,
    instance_to_text,
    read_instance,
    stats_to_text,
    write_instance,
    write_stats,
)
from .model import (
    GenerationStats,
    GeneratorParams,
    Inequality,
    LPInstance,
    ParameterError,
    UnsupportedDimensionError,
    build_objective,
    build_support,
    support_only_solution,
    validate_params,
)
from .rng import RngStream, derive_stream
from .svg import render_svg
from .validator import (
    ValidationReport,
    Violation,
    validate_instance,
    verify_support_solution,
)

__version__ = "0.1.0"

__all__ = [
    "BenchResult",
    "CandidateVerdict",
    "GenerationStalledError",
    "GenerationStats",
    "GeneratorParams",
    "Inequality",
    "LPInstance",
    "ParameterError",
    "ParseError",
    "RngStream",
    "SimilarityIndex",
    "UnsupportedDimensionError",
    "ValidationReport",
    "Violation",
    "build_objective",
    "build_support",
    "derive_stream",
    "distance_to_center",
    "draw_candidate",
    "filter_candidate",
    "generate_parallel",
    "generate_sequential",
    "hypercube_center",
    "instance_to_text",
    "likeness",
    "objective_value",
    "project_center",
    "read_instance",
    "render_svg",
    "run_benchmark",
    "run_cli",
    "stats_to_text",
    "support_only_solution",
    "validate_instance",
    "validate_params",
    "verify_support_solution",
    "write_instance",
    "write_stats",
]
