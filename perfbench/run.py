#!/usr/bin/env python3
"""randlp pipeline benchmark: gen -> write -> read -> validate.

    python3 perfbench/run.py --workload wide|packed|tall-par --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] \\
        [--trace 0|1] [--save PATH]

randlp is imported from the ``src/`` directory next to ``perfbench/``, never
from an installed copy; without ``src/randlp`` the benchmark exits non-zero
and prints no result.

Closed loop, one process, one caller: instance i of a run is generated from
seed N+i as soon as instance i-1 has been validated.  Each step is timed
from outside through randlp's public calls (``generate_sequential`` or
``generate_parallel``, ``instance_to_text``, ``read_instance``,
``validate_instance``), and every instance passes the output gates before
the next one starts.  No more threads run than the machine has CPUs: the
tall-par engine's 2 pool threads, and one BLAS thread.

--trace 0 measures the end-to-end metrics for S seconds (at least ``gate``
instances).  --trace 1 repeats passes over the first ``gate`` seeds for S
seconds, alternating untraced and traced passes; the traced passes give the
per-layer metrics (spans recorded by spans.Tracer) and the pair of pass
times gives the tracing overhead.  Per-layer counts cover one pass and must
repeat exactly between passes.  --workload all runs every workload in its
own process, so that peak RSS is per workload, and prints one table.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it, starting
with "report ", holds everything else (percentiles, sample counts, sha256,
environment).  Exit status 1 means an output gate failed.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned_sha256.json"
SETUP_REPEATS = 15

# Set before numpy is imported.  randlp's own work runs on the caller's
# thread or, in the parallel engine, on pool threads under the interpreter
# lock; only OpenBLAS adds threads.  On a 2-vCPU virtual machine its second
# thread made wide's validate_s slower (0.27 s against 0.22 s), and, as it
# spins after each call, the next setup_s sample took 0.31 s instead of
# 0.21 s.  So every workload runs BLAS on one thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


@dataclass(frozen=True)
class Workload:
    n: int
    d: int
    workers: int  # 1 runs generate_sequential, more run generate_parallel
    gate: int     # instances per sha256 digest and per traced pass

    def params(self, rl, seed: int):
        return rl.GeneratorParams(n=self.n, d=self.d, seed=seed, workers=self.workers)


# wide: likeness against the 2n+1 dense bounding rows takes most of the
# engine's time, and those rows make up most of the text.  n=400 keeps the
# 801 x 400 bounding block (2.6 MB) close to one core's 2 MB L2 cache.  At
# n=1000 its 16 MB live in the L3 shared with other tenants: on a shared
# 2-vCPU virtual machine (Xeon, Python 3.11) gen_s then spread by up to 0.29
# of its median (quartiles over ten seeds, 55 s runs), and a run held 14
# instances instead of about 55.
# tall-par: the parallel engine's rounds and its coordinator's accepted-row
# checks, with its two pool threads free to run on both CPUs.
# packed: one row below the d=5 packing limit at n=2, so the word draw,
# the stateless filter and per-call overhead dominate.  BENCHMARK.json
# lists wide and tall-par only: a third workload would cut the runs to 30 s,
# too short to average out spells of slower CPU that last 30-60 s on such
# a machine; packed stays runnable from the command line.
WORKLOADS = {
    "wide": Workload(n=400, d=300, workers=1, gate=4),
    "packed": Workload(n=2, d=4, workers=1, gate=40),
    "tall-par": Workload(n=20, d=2000, workers=2, gate=4),
}

# Names and units of the reported metrics, as BENCHMARK.json declares them.
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}

# Per-layer counts cover one pass of ``gate`` instances and must repeat
# exactly; times are seconds summed over one pass, median over the traced
# passes.  Counts that BENCHMARK.json leaves out (they read 0 on its
# workloads) are still checked and printed.
COUNTS = (
    "rng.calls",
    "rng.words",
    "generator.candidates",
    "generator.rejected_distance",
    "generator.rejected_objective",
    "generator.rejected_similarity",
    "generator.rounds",
    "generator.coordinator_rejected_similarity",
    "generator.discarded_surplus",
    "geometry.any_alike.calls",
    "geometry.rows_compared.bounding",
    "geometry.rows_compared.accepted",
    "io.write.bytes",
    "validator.rechecks",
    "validator.gram_bytes",
)


def load_randlp():
    """Import randlp from this checkout's src/, or exit non-zero."""
    init = SRC / "randlp" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no randlp source tree at {init}; run inside a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import randlp

    if Path(randlp.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported randlp from {randlp.__file__}, not from {SRC}")
    return randlp


# --- one instance through the pipeline ----------------------------------------


@dataclass
class Sample:
    seed: int
    gen_s: float       # generate + instance_to_text
    validate_s: float  # read_instance + validate_instance
    stats: object      # GenerationStats, also for a stall
    m: int = 0
    digest: str = ""
    failure: str = ""
    stalled: bool = False


def _untraced(_name, fn, *args, work=None):
    return fn(*args)


def run_instance(rl, wl: Workload, seed: int, pinned: dict, tracer=None) -> Sample:
    engine = rl.generate_parallel if wl.workers > 1 else rl.generate_sequential
    call = _untraced
    if tracer is not None:
        tracer.instance = seed
        call = tracer.call
    params = wl.params(rl, seed)
    t0 = time.perf_counter()
    try:
        inst, stats = call("generator", engine, params)
    except rl.GenerationStalledError as err:
        return Sample(seed, time.perf_counter() - t0, 0.0, err.stats,
                      failure=f"seed {seed}: stalled: {err}", stalled=True)
    text = call("io.write", rl.instance_to_text, inst, work=len)
    t1 = time.perf_counter()
    parsed = call("io.read", rl.read_instance, io.StringIO(text), work=lambda _: len(text))
    report = call("validator", rl.validate_instance, parsed)
    t2 = time.perf_counter()

    digest = hashlib.sha256(text.encode()).hexdigest()
    sample = Sample(seed, t1 - t0, t2 - t1, stats, m=inst.m, digest=digest)
    problem = check_instance(wl, inst, stats, parsed, report, digest, pinned.get(seed))
    if problem:
        sample.failure = f"seed {seed}: {problem}"
    return sample


def check_instance(wl, inst, stats, parsed, report, digest, pinned_digest) -> str:
    """The output gates; returns the first failed one, or ''."""
    if not report.ok:
        return f"validate_instance: {report.violations[0]}"
    if parsed != inst:
        return "read_instance(instance_to_text(x)) != x"
    if (inst.n, inst.d) != (wl.n, wl.d):
        return f"instance has n={inst.n} d={inst.d}, asked for n={wl.n} d={wl.d}"
    fates = inst.d + stats.rejected_distance + stats.rejected_objective + stats.rejected_similarity
    if stats.candidates_drawn != fates:
        return f"stats identity: candidates_drawn {stats.candidates_drawn} != {fates}"
    if wl.workers > 1:
        subs = inst.d + stats.coordinator_rejected_similarity + stats.discarded_surplus
        if stats.rounds * wl.workers != subs:
            return f"stats identity: rounds * workers {stats.rounds * wl.workers} != {subs}"
    if pinned_digest is not None and digest != pinned_digest:
        return f"sha256 {digest} differs from the pinned {pinned_digest}"
    return ""


def load_pinned(name: str) -> dict:
    """Pinned sha256 of instance texts, by instance seed (seeds 0..gate-1)."""
    return {seed: d for seed, d in enumerate(json.loads(PINNED.read_text()).get(name, []))}


def workload_digest(samples) -> str:
    """sha256 over the per-instance sha256 of the first ``gate`` texts."""
    return hashlib.sha256("\n".join(s.digest for s in samples).encode()).hexdigest()


# --- timing helpers --------------------------------------------------------------


def tail(values) -> dict:
    """Median, the highest percentile with at least 10 samples beyond it,
    and the sample count.  The percentile is left out unless it lies above
    the median, which takes more than 20 samples."""
    xs = sorted(values)
    out = {"median": median(xs), "count": len(xs), "tail": None}
    if len(xs) > 20:
        out["tail"] = {"percentile": 100.0 * (len(xs) - 10) / len(xs), "value": xs[len(xs) - 11]}
    return out


class SetupTimer:
    """Wall time of fresh interpreters importing randlp from src/.

    The samples are spread over the run rather than taken in one burst, so
    that a short spell of load on the machine moves only a few of them.
    """

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self._env = env
        self._cmd = [sys.executable, "-c", "import randlp"]
        self.samples: list[float] = []
        self._spawn()  # writes the .pyc files

    def _spawn(self) -> float:
        # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which would round every sample up to that grid.
        t0 = time.perf_counter()
        subprocess.run(self._cmd, env=self._env, cwd=ROOT, check=True)
        return time.perf_counter() - t0

    def sample_if_due(self, elapsed: float, seconds: float) -> None:
        if len(self.samples) < SETUP_REPEATS and elapsed >= len(self.samples) * seconds / SETUP_REPEATS:
            self.samples.append(self._spawn())

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(self._spawn())
        return self.samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def environment(rl) -> dict:
    import numpy

    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "randlp": rl.__version__,
        "git_sha": _git_sha(),
        "worker_scaling": (
            f"not assessable: nproc={nproc} < 8 cores" if nproc < 8
            else "not measured by this benchmark"
        ),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# --- the two kinds of run -----------------------------------------------------------


def run_end_to_end(rl, name: str, seed: int, seconds: float, pinned: dict) -> tuple[dict, dict]:
    wl = WORKLOADS[name]
    setup_timer = SetupTimer()
    samples: list[Sample] = []
    start = time.perf_counter()
    while len(samples) < wl.gate or time.perf_counter() - start < seconds:
        setup_timer.sample_if_due(time.perf_counter() - start, seconds)
        samples.append(run_instance(rl, wl, seed + len(samples), pinned))
    setup = setup_timer.finish()
    done = [s for s in samples if not s.stalled]
    if not done:
        raise RuntimeError(f"no {name} instance completed; first failure: {samples[0].failure}")
    busy = sum(s.gen_s + s.validate_s for s in samples)
    metrics = {
        "setup_s": median(setup),
        "instances_per_s": len(done) / busy,
        "gen_s": median(s.gen_s for s in done),
        "validate_s": median(s.validate_s for s in done),
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {
        "timings": {
            "setup_s": tail(setup),
            "gen_s": tail(s.gen_s for s in done),
            "validate_s": tail(s.validate_s for s in done),
        },
        "instances": len(done),
    }
    return _finish(name, samples, pinned, metrics, END_TO_END_UNITS, report)


def run_traced(rl, name: str, seed: int, seconds: float, pinned: dict) -> tuple[dict, dict]:
    wl = WORKLOADS[name]
    tracer = spans.Tracer()
    untraced: list[float] = []
    traced: list[dict] = []
    samples: list[Sample] = []
    start = time.perf_counter()
    while not (untraced and traced) or time.perf_counter() - start < seconds:
        trace_this = len(traced) < len(untraced)
        mark = len(tracer.spans)
        if trace_this:
            tracer.install()
        try:
            batch = [run_instance(rl, wl, seed + i, pinned, tracer if trace_this else None)
                     for i in range(wl.gate)]
        finally:
            tracer.uninstall()
        samples.extend(batch)
        # Every pass, traced or not, must write the texts of the first pass.
        for first, s in zip(samples, batch):
            if s.digest != first.digest and not s.failure:
                s.failure = f"seed {s.seed}: output differs from the first pass"
        elapsed = sum(s.gen_s + s.validate_s for s in batch)
        if not trace_this:
            untraced.append(elapsed)
            continue
        layers = spans.layer_metrics(tracer.spans[mark:])
        layers.update(_stats_metrics(batch, layers))
        layers["pass_s"] = elapsed
        if traced and any(layers[k] != traced[0][k] for k in COUNTS):
            for s in batch:
                s.failure = s.failure or f"seed {s.seed}: per-layer counts differ from the first traced pass"
        traced.append(layers)

    metrics = {key: median(p[key] for p in traced) for key in traced[0]}
    metrics.update({key: traced[0][key] for key in COUNTS})
    metrics["trace.instances_per_s"] = wl.gate / metrics.pop("pass_s")
    metrics["trace.untraced_instances_per_s"] = wl.gate / median(untraced)
    metrics["trace.overhead_frac"] = (
        metrics["trace.untraced_instances_per_s"] / metrics["trace.instances_per_s"] - 1.0
    )
    report = {"passes": {"traced": len(traced), "untraced": len(untraced)},
              "spans_recorded": len(tracer.spans)}
    return _finish(name, samples, pinned, metrics, PER_LAYER_UNITS, report)


def _stats_metrics(batch, layers) -> dict:
    """Generator counters of one pass, from the returned GenerationStats."""
    def total(field):
        return sum(getattr(s.stats, field) for s in batch)

    cand = total("candidates_drawn")
    rej = {k: total(k) for k in ("rejected_distance", "rejected_objective", "rejected_similarity")}
    accepted = cand - sum(rej.values())
    rounds = total("rounds")
    return {
        "rng.words_per_candidate": layers["rng.words"] / cand,
        "generator.candidates": cand,
        **{f"generator.{k}": v for k, v in rej.items()},
        "generator.survivor_ratio": (cand - rej["rejected_distance"] - rej["rejected_objective"]) / cand,
        "generator.accept_ratio": accepted / cand,
        "generator.rounds": rounds,
        "generator.coordinator_rejected_similarity": total("coordinator_rejected_similarity"),
        "generator.discarded_surplus": total("discarded_surplus"),
        "generator.par.round_ms": 1000.0 * layers["generator.self_s"] / rounds if rounds else 0.0,
        "validator.gram_bytes": max(8 * s.m * s.m for s in batch),
    }


def _finish(name, samples, pinned, metrics, units, report) -> tuple[dict, dict]:
    wl = WORKLOADS[name]
    failures = [s.failure for s in samples if s.failure]
    gated = samples[: wl.gate]
    checked = [s for s in gated if s.seed in pinned and not s.stalled]
    if not checked:
        pin_state = "no pinned digest for these seeds"
    elif all(s.digest == pinned[s.seed] for s in checked):
        pin_state = f"match ({len(checked)} pinned instances)"
    else:
        pin_state = "mismatch"
    result = {
        "correct": not any(s.failure and not s.stalled for s in samples),
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    report.update({
        "other_metrics": {k: v for k, v in metrics.items() if k not in units},
        "workload": name,
        "params": {"n": wl.n, "d": wl.d, "workers": wl.workers},
        "seeds": [min(s.seed for s in samples), max(s.seed for s in samples)],
        "failed_frac": result["failed"] / result["attempted"],
        "failures": failures[:5],
        "sha256": {
            "seeds": [gated[0].seed, gated[-1].seed],
            "digest": workload_digest(gated),
            "pinned": pin_state,
        },
    })
    return result, report


# --- command line ----------------------------------------------------------------


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_run(result: dict, report: dict) -> None:
    p = report["params"]
    engine = f"parallel engine, {p['workers']} workers" if p["workers"] > 1 else "sequential engine"
    print(f"{report['workload']}: n={p['n']} d={p['d']}, {engine}, seeds "
          f"{report['seeds'][0]}..{report['seeds'][1]}, closed loop with one caller")
    timings = report.get("timings", {})
    for key, m in result["metrics"].items():
        line = f"  {key:<42} {_fmt(m['value']):>14} {m['unit']}"
        t = timings.get(key)
        if t:
            tail_txt = (f"p{t['tail']['percentile']:.4g} {_fmt(t['tail']['value'])}" if t["tail"]
                        else "too few samples for a tail percentile")
            line += f"   median of {t['count']}; {tail_txt}"
        print(line)
    for key, value in report["other_metrics"].items():
        print(f"  {key:<42} {_fmt(value):>14}   (not in BENCHMARK.json)")
    print(f"  {'failed_frac':<42} {_fmt(report['failed_frac']):>14} fraction"
          f"   {result['failed']} of {result['attempted']} attempted")
    sha = report["sha256"]
    print(f"  sha256 seeds {sha['seeds'][0]}..{sha['seeds'][1]}: {sha['digest']} ({sha['pinned']})")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    env = report["env"]
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))


def run_all(args) -> int:
    """Every workload in its own process; one table of all metrics."""
    reports, results, status = {}, {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        status = max(status, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode} without a result")
            continue
        print("\n".join(lines[:-2]))
        reports[name] = json.loads(lines[-2].removeprefix("report "))
        results[name] = json.loads(lines[-1])
        reports[name]["result"] = results[name]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    names = list(results)
    print()
    print(f"{'metric':<42} {'unit':<15}" + "".join(f"{n:>14}" for n in names))
    for key, unit in [*units.items(), ("failed_frac", "fraction")]:
        cells = [results[n]["metrics"][key]["value"] if key in units else reports[n]["failed_frac"]
                 for n in names]
        print(f"{key:<42} {unit:<15}" + "".join(f"{_fmt(v):>14}" for v in cells))
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "workloads": reports},
            indent=1) + "\n")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="randlp gen -> write -> read -> validate benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0, help="seed of the first instance")
    ap.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    ap.add_argument("--save", help="with --workload all: write every report as JSON here")
    args = ap.parse_args(argv)
    if args.save and args.workload != "all":
        ap.error("--save needs --workload all")
    rl = load_randlp()
    if args.workload == "all":
        return run_all(args)

    pinned = load_pinned(args.workload)
    run = run_traced if args.trace else run_end_to_end
    result, report = run(rl, args.workload, args.seed, args.seconds, pinned)
    report["env"] = environment(rl)
    print_run(result, report)
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
