"""Command line front end: gen, validate, render, bench."""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .bench import run_benchmark
from .generator import GenerationStalledError, generate_parallel
from .io import ParseError, read_instance, write_instance, write_stats
from .model import GeneratorParams, ParameterError, UnsupportedDimensionError, refuse
from .svg import render_svg
from .validator import validate_instance

_DEFAULTS = {f.name: f.default for f in dataclasses.fields(GeneratorParams)}


def _add_unstored_args(ap: argparse.ArgumentParser) -> None:
    """The acceptance bounds an instance file does not record.  argparse
    reads a value such as -inf, -nan or -1e5 after a space as an option
    name, so each help says to join it with '='."""
    for flag, dest, text in (("--rho", "rho", "exclusion-ball radius"),
                             ("--lmax", "l_max", "direction likeness bound"),
                             ("--smin", "s_min", "offset likeness bound")):
        ap.add_argument(flag, dest=dest, type=float, default=_DEFAULTS[dest],
                        help=f"{text}; join a value such as -inf with '=': {flag}=-inf")


def _add_generator_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--n", type=int, required=True, help="number of variables")
    ap.add_argument("--d", type=int, default=0, help="number of random inequalities")
    ap.add_argument("--alpha", type=float, default=_DEFAULTS["alpha"], help="hypercube side")
    ap.add_argument("--theta", type=float, default=_DEFAULTS["theta"], help="near-ball radius")
    _add_unstored_args(ap)
    ap.add_argument("--amax", dest="a_max", type=float, default=_DEFAULTS["a_max"],
                    help="coefficient magnitude bound")
    ap.add_argument("--bmax", dest="b_max", type=float, default=_DEFAULTS["b_max"],
                    help="right-hand-side magnitude bound")
    ap.add_argument("--seed", type=int, default=_DEFAULTS["seed"])
    ap.add_argument("--max-attempts", dest="max_attempts", type=int,
                    default=_DEFAULTS["max_attempts"],
                    help="draw budget per accepted inequality")


def _params_from(args: argparse.Namespace, workers: int = 1) -> GeneratorParams:
    return GeneratorParams(
        n=args.n, d=args.d, alpha=args.alpha, theta=args.theta, rho=args.rho,
        l_max=args.l_max, s_min=args.s_min, a_max=args.a_max, b_max=args.b_max,
        seed=args.seed, workers=workers, max_attempts=args.max_attempts,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randlp",
        description="Generate, check, draw, and benchmark random bounded "
                    "feasible linear programming instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate one instance")
    _add_generator_args(gen)
    gen.add_argument("--workers", type=int, default=1,
                     help="producer streams: 1 runs stream 0, L >= 2 runs streams 1..L")
    gen.add_argument("--out", help="instance file (stdout when omitted)")
    gen.add_argument("--stats-out", dest="stats_out", help="also write run counters here")

    val = sub.add_parser("validate", help="check an instance file")
    val.add_argument("--in", dest="infile", required=True)
    _add_unstored_args(val)

    ren = sub.add_parser("render", help="draw a 2-D instance as SVG")
    ren.add_argument("--in", dest="infile", required=True)
    ren.add_argument("--out", help="SVG file (stdout when omitted)")

    ben = sub.add_parser("bench", help="compare wall time across worker counts")
    _add_generator_args(ben)
    ben.add_argument("--workers-list", dest="workers_list", default="1,2,4,8",
                     help="comma separated worker counts")
    ben.add_argument("--reps", type=int, default=3, help="repetitions per count")
    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    instance, stats = generate_parallel(_params_from(args, workers=args.workers))
    write_instance(instance, args.out or sys.stdout)
    if args.stats_out:
        write_stats(stats, args.stats_out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    inst = read_instance(args.infile)
    params = dataclasses.replace(inst.params, rho=args.rho, l_max=args.l_max, s_min=args.s_min)
    report = validate_instance(dataclasses.replace(inst, params=params))
    if report.ok:
        print("ok")
        return 0
    for violation in report.violations:
        print(violation, file=sys.stderr)
    print(f"invalid: {len(report.violations)} violation(s)", file=sys.stderr)
    return 1


def _cmd_render(args: argparse.Namespace) -> int:
    text = render_svg(read_instance(args.infile))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    params = _params_from(args)
    try:
        counts = [int(tok) for tok in args.workers_list.split(",") if tok.strip()]
    except ValueError:
        counts = []
    violations = []
    if not counts:
        violations.append(f"--workers-list is one or more integers, got {args.workers_list!r}")
    if args.reps < 1:
        violations.append("--reps >= 1")
    refuse(violations)
    results = run_benchmark(params, counts, repetitions=args.reps)
    for i, r in enumerate(results):
        if i:
            print()
        print(f"workers = {r.worker_count}")
        print(f"median_wall_time_ms = {r.wall_time_ms:.3f}")
        print(f"speedup = {r.speedup:.3f}")
    return 0


def run_cli(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "gen": _cmd_gen,
        "validate": _cmd_validate,
        "render": _cmd_render,
        "bench": _cmd_bench,
    }[args.command]
    try:
        return handler(args)
    except ParameterError as err:
        for violation in err.violations:
            print(f"parameter violation: {violation}", file=sys.stderr)
        return 2
    except (ParseError, GenerationStalledError, UnsupportedDimensionError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())
