import math
import re
import subprocess
import sys
import tempfile
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from randlp import (
    GeneratorParams,
    ParameterError,
    derive_stream,
    draw_candidate,
    generate_parallel,
    generate_sequential,
    hypercube_center,
    instance_to_text,
    read_instance,
    run_cli,
    validate_instance,
    validate_params,
)
from randlp.model import bound_violations

from conftest import with_rows

GEN = ["gen", "--n", "2", "--d", "5", "--seed", "42"]


def test_gen_then_validate_ok(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert run_cli(GEN + ["--out", str(out)]) == 0
    assert run_cli(["validate", "--in", str(out)]) == 0
    assert "ok" in capsys.readouterr().out


def test_gen_to_stdout_parses(tmp_path, capsys):
    assert run_cli(["gen", "--n", "1", "--d", "0", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    inst = read_instance_text(text)
    assert inst.n == 1
    assert inst.d == 0
    assert inst.params.seed == 3


def read_instance_text(text):
    import io

    return read_instance(io.StringIO(text))


def test_gen_byte_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    c = tmp_path / "c.txt"
    args = ["gen", "--n", "10", "--d", "20", "--seed", "42",
            "--workers", "4"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    args[args.index("42")] = "43"
    assert run_cli(args + ["--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_gen_parallel_engine_matches_library(tmp_path):
    out = tmp_path / "inst.txt"
    rc = run_cli(["gen", "--n", "2", "--d", "5", "--seed", "42",
                  "--workers", "3", "--out", str(out)])
    assert rc == 0
    lib, _ = generate_parallel(GeneratorParams(n=2, d=5, seed=42, workers=3))
    assert read_instance(out) == lib


@pytest.mark.parametrize("n, d, seed", [(2, 5, 42), (3, 6, 0), (10, 20, 42), (20, 40, 7)])
def test_one_worker_is_the_sequential_engine(capsys, tmp_path, n, d, seed):
    params = GeneratorParams(n=n, d=d, seed=seed)
    seq, seq_stats = generate_sequential(params)
    par, par_stats = generate_parallel(replace(params, workers=1))
    assert instance_to_text(par) == instance_to_text(seq)
    assert replace(par_stats, wall_time_ms=0.0) == replace(seq_stats, wall_time_ms=0.0)
    out = tmp_path / "inst.txt"
    args = ["gen", "--n", str(n), "--d", str(d), "--seed", str(seed), "--workers", "1"]
    assert run_cli(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == instance_to_text(seq).encode()
    # the worker count is the only engine switch
    with pytest.raises(SystemExit) as exc:
        run_cli(args + ["--engine", "par"])
    assert exc.value.code == 2
    assert "--engine" in capsys.readouterr().err


def test_gen_stats_out(tmp_path):
    out = tmp_path / "inst.txt"
    stats = tmp_path / "stats.txt"
    rc = run_cli(GEN + ["--out", str(out), "--stats-out", str(stats)])
    assert rc == 0
    text = stats.read_text()
    assert "candidates_drawn = " in text
    assert "rejected_distance = " in text


def test_bad_params_exit_2(capsys):
    rc = run_cli(["gen", "--n", "2", "--d", "1", "--theta", "150"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "parameter violation" in err
    assert "theta <= alpha/2" in err


def test_stall_exit_1(capsys):
    rc = run_cli(GEN + ["--max-attempts", "50"])
    assert rc == 1
    assert "no acceptance within" in capsys.readouterr().err


def test_gen_with_a_huge_d_stalls_with_exit_1(capsys):
    rc = run_cli(["gen", "--n", "1", "--d", "1000000000000"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: no acceptance within" in captured.err


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not an instance\n")
    assert run_cli(["validate", "--in", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_reports_violations(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert run_cli(GEN + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    # push the last random row past theta: center distance becomes huge
    toks = lines[-2].split()
    toks[-1] = "99999"
    lines[-2] = " ".join(toks)
    out.write_text("\n".join(lines) + "\n")
    assert run_cli(["validate", "--in", str(out)]) == 1
    err = capsys.readouterr().err
    assert "invalid:" in err
    assert "distance <= theta" in err


def test_missing_input_exit_1(tmp_path, capsys):
    assert run_cli(["validate", "--in", str(tmp_path / "nope.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_render_writes_svg(tmp_path):
    inst = tmp_path / "inst.txt"
    svg = tmp_path / "pic.svg"
    assert run_cli(GEN + ["--out", str(inst)]) == 0
    assert run_cli(["render", "--in", str(inst), "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert 'class="random"' in text


def test_render_rejects_higher_dimensions(tmp_path, capsys):
    inst = tmp_path / "inst3.txt"
    assert run_cli(["gen", "--n", "3", "--d", "0", "--out", str(inst)]) == 0
    assert run_cli(["render", "--in", str(inst)]) == 1
    assert "n = 2" in capsys.readouterr().err


def test_bench_emits_counter_blocks(capsys):
    rc = run_cli(["bench", "--n", "2", "--d", "2", "--seed", "1",
                  "--workers-list", "1,2", "--reps", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "workers = 1" in out
    assert "workers = 2" in out
    assert out.count("median_wall_time_ms = ") == 2
    assert "speedup = 1.000" in out


def test_bench_rejects_bad_worker_list(capsys):
    rc = run_cli(["bench", "--n", "2", "--d", "0", "--workers-list", "1,x"])
    assert rc == 2
    assert "workers-list" in capsys.readouterr().err


@pytest.mark.parametrize("flags, violation", [
    (["--reps", "0"], "--reps >= 1"),
    (["--workers-list", ","], "--workers-list is one or more integers"),
])
def test_bench_refuses_bad_arguments(capsys, flags, violation):
    assert run_cli(["bench", "--n", "2", "--d", "0", *flags]) == 2
    assert f"parameter violation: {violation}" in capsys.readouterr().err


def test_bench_refuses_a_bad_worker_count_before_any_run(monkeypatch, capsys):
    calls = []

    def counted(params):
        calls.append(params.workers)
        return generate_parallel(params)

    monkeypatch.setattr("randlp.bench.generate_parallel", counted)
    rc = run_cli(["bench", "--n", "2", "--d", "2", "--workers-list", "1,2,0", "--reps", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parameter violation: workers >= 1\n"
    assert calls == []


def test_gen_refuses_an_overflowing_diagonal(capsys):
    rc = run_cli(["gen", "--n", "3", "--d", "0", "--alpha", "1e308", "--theta", "1e307",
                  "--rho", "1e306", "--smin", "1e300"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parameter violation: (n-1)*alpha + alpha/2 finite" in captured.err


@pytest.mark.parametrize("command", ["validate", "render"])
def test_undecodable_input_exit_1(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe1 3 0 7\n")
    assert run_cli([command, "--in", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "randlp", "gen", "--n", "1", "--d", "0", "--seed", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 3 0 7\n1 200\n-1 0\n1 100\n100\n"


@pytest.mark.parametrize("flags, violation", [
    (["--alpha", "inf"], "alpha finite"),
    (["--amax", "inf"], "a_max finite"),
    (["--bmax", "nan"], "b_max finite"),
])
def test_non_finite_params_exit_2(capsys, flags, violation):
    assert run_cli(GEN + flags) == 2
    assert f"parameter violation: {violation}" in capsys.readouterr().err


def test_n1_with_s_min_above_half_alpha_exits_2(capsys):
    assert run_cli(["gen", "--n", "1", "--d", "0", "--smin", "150"]) == 2
    assert "s_min <= alpha/2 when n = 1" in capsys.readouterr().err


def test_gen_refuses_an_a_max_whose_square_underflows(capsys):
    assert validate_params(GeneratorParams(n=2, d=1, a_max=1e-200)) == ["a_max*a_max > 0"]
    assert run_cli(["gen", "--n", "2", "--d", "1", "--amax", "1e-200"]) == 2
    assert capsys.readouterr().err == "parameter violation: a_max*a_max > 0\n"


OVERFLOWING = [
    # a row's sum of squares overflows
    (GeneratorParams(n=2, d=1, a_max=1e200, b_max=1e203), "2*n*a_max*a_max finite"),
    # <a,h> overflows; a theta of 1e100 keeps the objective at the center finite
    (GeneratorParams(n=2, d=1, alpha=1e200, theta=1e100, rho=1e99, s_min=1e99, a_max=1e150,
                     b_max=1e150), "2*(n*a_max*alpha/2 + b_max) finite"),
    # the objective at the center, 3*theta*alpha/2, overflows: no row improves on it
    (GeneratorParams(n=2, d=1, alpha=1e308, theta=4e307, rho=1e307, s_min=1e307, a_max=1e-150,
                     b_max=1e-150), "6*theta*alpha/2*n*(n+1)/2 finite"),
]


@pytest.mark.parametrize("params, violation", OVERFLOWING)
def test_gen_refuses_params_whose_row_arithmetic_overflows(capsys, params, violation):
    # refused before any draw, so no overflow warning and no stall
    assert validate_params(params) == [violation]
    for engine in (generate_sequential, generate_parallel):
        for workers in (1, 2):
            with pytest.raises(ParameterError, match=re.escape(violation)):
                engine(replace(params, workers=workers))
    with pytest.raises(ParameterError, match=re.escape(violation)):
        draw_candidate(derive_stream(0, 0), params, hypercube_center(2, params.alpha))
    flags = {"--alpha": params.alpha, "--theta": params.theta, "--rho": params.rho,
             "--smin": params.s_min, "--amax": params.a_max, "--bmax": params.b_max}
    argv = ["gen", "--n", "2", "--d", "1"] + [x for f, v in flags.items() for x in (f, repr(v))]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"parameter violation: {violation}\n"


def test_validate_names_a_row_whose_norm_overflows(tmp_path, capsys):
    # finite coefficients whose sum of squares overflows: one violation of
    # its own and no other for that row; the suite's filter turns an
    # overflow warning into a failure
    out = tmp_path / "inst.txt"
    assert run_cli(GEN + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    lines[-2] = "1e300 -694.6 9050.6"
    out.write_text("\n".join(lines) + "\n")
    assert run_cli(["validate", "--in", str(out)]) == 1
    row = read_instance_text(out.read_text()).m - 1
    assert [x for x in capsys.readouterr().err.splitlines() if f"constraint {row}:" in x] == [
        f"constraint {row}: finite coefficient norm (measured inf, bound finite)"
    ]


def test_validate_names_a_row_whose_product_with_the_center_overflows(tmp_path, capsys):
    # <a,h> = 1e10 * 5e299 overflows while the row's norm does not: its step
    # is infinite and its projection's value nan, reported without the
    # warning that the suite's filter turns into a failure
    out = tmp_path / "huge.txt"
    out.write_text("2 6 1 0\n1 0 1e+300\n0 1 1e+300\n-1 0 0\n0 -1 0\n1 1 1.5e+300\n"
                   "1e10 0 1\n2 1\n")
    assert run_cli(["validate", "--in", str(out), "--rho=0.5"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "constraint 5: center feasibility a.h <= b (measured inf, bound 1.0)",
        "constraint 5: distance <= theta (measured inf, bound 1.0)",
        "constraint 5: objective improvement at projection (measured nan, bound 1.5e+300)",
        "invalid: 3 violation(s)",
    ]


def test_validate_applies_the_n1_rule_as_gen_does(tmp_path, capsys):
    out = tmp_path / "n1.txt"
    assert run_cli(["gen", "--n", "1", "--d", "0", "--out", str(out)]) == 0
    assert run_cli(["validate", "--in", str(out), "--smin", "150"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parameter violation: s_min <= alpha/2 when n = 1\n"


def test_validate_takes_the_bounds_the_file_does_not_store(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert run_cli(["gen", "--n", "2", "--d", "3", "--seed", "1", "--rho", "10",
                    "--theta", "90", "--out", str(out)]) == 0
    # the file keeps alpha and theta but not rho: the default rho (50) is
    # wrong for rows drawn with rho = 10
    assert run_cli(["validate", "--in", str(out)]) == 1
    assert "distance > rho" in capsys.readouterr().err
    assert run_cli(["validate", "--in", str(out), "--rho", "10"]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_builds_no_bounding_row(tmp_path, capsys, monkeypatch):
    from randlp.model import BoundingBlock

    out = tmp_path / "n200.txt"
    assert run_cli(["gen", "--n", "200", "--d", "20", "--seed", "1", "--out", str(out)]) == 0
    built = []
    row = BoundingBlock.row
    monkeypatch.setattr(BoundingBlock, "row",
                        lambda *args: built.append(args[1:]) or row(*args))
    assert run_cli(["validate", "--in", str(out)]) == 0
    assert "ok" in capsys.readouterr().out
    assert built == []


def test_validate_refuses_rho_not_below_the_file_theta(tmp_path, capsys):
    out = tmp_path / "r0.txt"
    assert run_cli(["gen", "--n", "2", "--d", "0", "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    # gen refuses the same rho for the theta (100) the file stores
    assert run_cli(["validate", "--in", str(out), "--rho", "150"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parameter violation: rho < theta\n"


# per n, an instance whose first two random rows are one row twice
DUPLICATED = {
    2: GeneratorParams(n=2, d=5, seed=42),
    1: GeneratorParams(n=1, d=2, seed=5, rho=10.0, s_min=20.0),
}
# (n, field, validate flag, value): bounds gen refuses; s_min > alpha/2 is
# refused at n = 1 only
REFUSED_BOUNDS = (
    [(2, "l_max", "lmax", v) for v in (math.nan, -1.0, 0.0, 0.71)]
    + [(2, "s_min", "smin", v) for v in (0.0, math.nan, -math.inf)]
    + [(2, "rho", "rho", v) for v in (math.nan, 100.0)]  # theta = 100
    + [(1, "s_min", "smin", 101.0)]
)


@pytest.mark.parametrize("n, field, flag, value", REFUSED_BOUNDS,
                         ids=[f"n{n}-{f}={v!r}" for n, f, _, v in REFUSED_BOUNDS])
def test_library_and_cli_refuse_the_same_bounds(tmp_path, capsys, n, field, flag, value):
    inst, _ = generate_sequential(DUPLICATED[n])
    random = list(inst.random)
    random[1] = random[0]
    inst = with_rows(inst, random=tuple(random))
    assert not validate_instance(inst).ok
    q = replace(inst.params, **{field: value})
    want = bound_violations(q)
    assert want
    with pytest.raises(ParameterError) as err:
        validate_instance(replace(inst, params=q))
    assert err.value.violations == want
    out = tmp_path / "dup.txt"
    out.write_text(instance_to_text(inst))
    assert run_cli(["validate", "--in", str(out), f"--{flag}={value!r}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(f"parameter violation: {v}\n" for v in want)


def test_validate_reports_stored_parameters_that_gen_refuses(tmp_path, capsys):
    out = tmp_path / "p.txt"
    assert run_cli(["gen", "--n", "2", "--d", "0", "--out", str(out)]) == 0
    assert run_cli(["gen", "--n", "2", "--d", "0", "--theta", "150"]) == 2
    assert "theta <= alpha/2" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert lines[1:] == ["1 0 200", "0 1 200", "-1 0 0", "0 -1 0", "1 1 300", "200 100"]
    # theta = 150 > alpha/2
    out.write_text("\n".join(lines[:-1] + ["300 150"]) + "\n")
    assert run_cli(["validate", "--in", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "structure: theta <= alpha/2 (measured 150.0, bound 100.0)",
        "invalid: 1 violation(s)",
    ]
    # alpha = 0: the bounding rows leave one feasible point
    zero = [lines[0], "1 0 0", "0 1 0", "-1 0 0", "0 -1 0", "1 1 0", "200 100"]
    out.write_text("\n".join(zero) + "\n")
    assert run_cli(["validate", "--in", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "structure: alpha > 0 (measured 0.0, bound 0.0)",
        "structure: theta <= alpha/2 (measured 100.0, bound 0.0)",
        "invalid: 2 violation(s)",
    ]


@pytest.mark.parametrize("text, want", [
    # theta = -1: rho < theta fails for any rho > 0
    ("2 5 0 0\n1 0 200\n0 1 200\n-1 0 0\n0 -1 0\n1 1 300\n-2 -1\n",
     ["structure: theta > 0 (measured -1.0, bound 0.0)"]),
    ("2 5 0 0\n1 0 0\n0 1 0\n-1 0 0\n0 -1 0\n1 1 0\n0 0\n",
     ["structure: alpha > 0 (measured 0.0, bound 0.0)",
      "structure: theta > 0 (measured 0.0, bound 0.0)"]),
    # n = 1 and alpha = 0: the n = 1 rule fails for any s_min > 0 too
    ("1 3 0 0\n1 0\n-1 0\n1 0\n0\n",
     ["structure: alpha > 0 (measured 0.0, bound 0.0)",
      "structure: theta > 0 (measured 0.0, bound 0.0)"]),
], ids=["theta-1", "alpha0-theta0", "n1-alpha0-theta0"])
def test_validate_does_not_blame_the_bounds_for_the_file_parameters(tmp_path, capsys, text,
                                                                     want):
    out = tmp_path / "bad.txt"
    out.write_text(text)
    assert run_cli(["validate", "--in", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == want + [f"invalid: {len(want)} violation(s)"]
    # the bounds given are still judged on their own conditions
    assert run_cli(["validate", "--in", str(out), "--smin", "0"]) == 2
    assert capsys.readouterr().err == "parameter violation: s_min > 0\n"


@pytest.fixture
def duplicate_row_file(tmp_path):
    """A generated file whose last random row is copied over the one before."""
    out = tmp_path / "dup.txt"
    assert run_cli(["gen", "--n", "3", "--d", "4", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    lines[-3] = lines[-2]  # constraint rows 9 and 10, before the objective
    out.write_text("\n".join(lines) + "\n")
    return out


@pytest.mark.parametrize("flags, violations", [
    (["--lmax", "nan"], ["l_max > 0", "l_max finite", "l_max <= 0.7"]),
    (["--smin", "nan"], ["s_min > 0", "s_min finite"]),
    (["--smin", "0"], ["s_min > 0"]),
    (["--lmax", "-1"], ["l_max > 0"]),
    (["--lmax", "0.71"], ["l_max <= 0.7"]),
    (["--rho", "inf"], ["rho finite"]),
    (["--rho", "0"], ["rho > 0"]),
])
def test_validate_refuses_unusable_bounds(duplicate_row_file, capsys, flags, violations):
    assert run_cli(["validate", "--in", str(duplicate_row_file)]) == 1
    assert "constraint 10: alike with constraint 9" in capsys.readouterr().err
    assert run_cli(["validate", "--in", str(duplicate_row_file), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"parameter violation: {v}" for v in violations]


@st.composite
def accepted_params(draw):
    """Small parameter sets that validate_params accepts."""
    n = draw(st.integers(1, 3))
    alpha = draw(st.floats(1.0, 1000.0))
    theta = draw(st.floats(0.05, 1.0)) * alpha / 2
    a_max = draw(st.floats(1.0, 1e4))
    p = GeneratorParams(
        n=n,
        d=draw(st.integers(1, 4)),
        alpha=alpha,
        theta=theta,
        rho=draw(st.floats(0.01, 0.95)) * theta,
        l_max=draw(st.floats(0.01, 0.7)),
        s_min=draw(st.floats(0.001, 1.0)) * alpha * (0.5 if n == 1 else 1.0),
        a_max=a_max,
        # offsets up to about |a| * alpha * n reach the distance band
        b_max=draw(st.floats(0.1, 4.0)) * a_max * alpha * n,
        seed=draw(st.integers(0, 2**64 - 1)),
        workers=draw(st.integers(1, 3)),
        max_attempts=20000,
    )
    assume(not validate_params(p))
    return p


@given(accepted_params())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_gen_write_read_validate_round_trip(p):
    bounds = ["--rho", repr(p.rho), "--lmax", repr(p.l_max), "--smin", repr(p.s_min)]
    with tempfile.TemporaryDirectory() as tmp:
        out = f"{tmp}/inst.txt"
        rc = run_cli([
            "gen", "--n", str(p.n), "--d", str(p.d), "--alpha", repr(p.alpha),
            "--theta", repr(p.theta), "--amax", repr(p.a_max), "--bmax", repr(p.b_max),
            "--seed", str(p.seed), "--workers", str(p.workers),
            "--max-attempts", str(p.max_attempts), "--out", out, *bounds,
        ])
        assume(rc == 0)  # 1 is a stall: the thresholds left no room for d rows
        assert run_cli(["validate", "--in", out, *bounds]) == 0
