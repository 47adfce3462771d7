import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randlp import (
    GenerationStats,
    GeneratorParams,
    Inequality,
    LPInstance,
    ParseError,
    build_objective,
    build_support,
    generate_sequential,
    instance_to_text,
    read_instance,
    stats_to_text,
    validate_instance,
    write_instance,
    write_stats,
)
from randlp import io as rio
from randlp.model import BoundingBlock

from conftest import instance_from_rows


def test_support_only_n1_exact_text():
    inst, _ = generate_sequential(GeneratorParams(n=1, d=0, seed=7))
    assert instance_to_text(inst) == (
        "1 3 0 7\n"
        "1 200\n"
        "-1 0\n"
        "1 100\n"
        "100\n"
    )


def test_file_and_stream_writes_agree(tmp_path, demo_params):
    inst, _ = generate_sequential(demo_params)
    path = tmp_path / "inst.txt"
    write_instance(inst, path)
    buf = io.StringIO()
    write_instance(inst, buf)
    assert path.read_text() == buf.getvalue()
    assert read_instance(path) == read_instance(io.StringIO(buf.getvalue()))


def test_engine_output_round_trips(tmp_path, demo_params):
    inst, _ = generate_sequential(demo_params)
    path = tmp_path / "inst.txt"
    write_instance(inst, path)
    back = read_instance(path)
    assert back == inst
    assert validate_instance(back).ok


def _synthetic_instance(n, d, seed):
    gen = np.random.default_rng(seed)
    support = build_support(n, 200.0)
    c = build_objective(n, 100.0)
    random = []
    for _ in range(d):
        # arbitrary awkward floats; the format must carry anything binary64
        a = gen.uniform(-1.0, 1.0, n) * 10.0 ** gen.integers(-12, 13, n)
        b = float(gen.uniform(-1.0, 1.0) * 10.0 ** gen.integers(-12, 13))
        random.append(Inequality(a, b))
    params = GeneratorParams(n=n, d=d, seed=int(gen.integers(0, 2**63)))
    return instance_from_rows(n=n, support=tuple(support), random=tuple(random), c=c,
                              params=params)


def test_thousand_synthetic_round_trips():
    count = 0
    for n in (1, 2, 5, 10):
        for d in (0, 1, 5):
            for seed in range(84):
                inst = _synthetic_instance(n, d, seed)
                back = read_instance(io.StringIO(instance_to_text(inst)))
                assert back == inst
                assert back.params.seed == inst.params.seed
                count += 1
    assert count >= 1000


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, 1.0, -1.0, math.pi, 1 / 3, 1e-300, 1e300, 5e-324,
     np.nextafter(1.0, 2.0), 123456789.123456789, -2.2250738585072014e-308],
)
def test_awkward_floats_round_trip_bitwise(value):
    inst = _synthetic_instance(1, 0, 0)
    row = Inequality(np.array([1.0]), value)
    patched = instance_from_rows(
        n=1, support=inst.support, random=(row,), c=inst.c, params=inst.params
    )
    back = read_instance(io.StringIO(instance_to_text(patched)))
    got = back.random[0].b
    assert np.float64(got).tobytes() == np.float64(value).tobytes()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
any_float = st.one_of(
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
)


@given(st.lists(any_float, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_row_text_equals_formatting_each_token(values):
    # nan payloads and signs print as nan, the same either way
    assert rio._text(values) == " ".join(format(v, ".17g") for v in values)
    q = Inequality(np.array(values[:-1] or [1.0]), values[-1])
    want = " ".join(format(v, ".17g") for v in q.a.tolist() + [q.b])
    # the writer's line for a bounding row: the template when q is
    # canonical, else the row format
    n = q.a.size
    block = BoundingBlock.from_rows(n, 200.0, [q] + [None] * (2 * n))
    inst = LPInstance(n, block, np.empty((0, n)), np.empty(0),
                      build_objective(n, 100.0), GeneratorParams(n=n))
    assert instance_to_text(inst).splitlines()[1] == want


def test_header_reconstructs_alpha_and_theta():
    inst, _ = generate_sequential(
        GeneratorParams(n=3, d=0, seed=1, alpha=64.0, theta=16.0, rho=4.0)
    )
    back = read_instance(io.StringIO(instance_to_text(inst)))
    assert back.params.alpha == 64.0
    assert back.params.theta == 16.0
    assert back.params.seed == 1


def test_trailing_blank_lines_tolerated(demo_params):
    inst, _ = generate_sequential(demo_params)
    text = instance_to_text(inst) + "\n\n"
    assert read_instance(io.StringIO(text)) == inst


def err(text):
    with pytest.raises(ParseError) as exc:
        read_instance(io.StringIO(text))
    return str(exc.value)


def test_parse_error_empty():
    assert "empty" in err("")
    assert "empty" in err("\n\n")


def test_parse_error_bad_header():
    assert "line 1" in err("1 2 3\n")
    assert "integers" in err("a b c d\n")
    assert "n must be >= 1" in err("0 1 0 0\n")
    assert "d must be >= 0" in err("1 2 -1 0\n")
    assert "seed" in err("1 3 0 -5\n")


def test_parse_error_inconsistent_m():
    msg = err("2 9 5 0\n")
    assert "m = 9" in msg and "2n+1+d = 10" in msg


def test_parse_error_row_shortfall_names_counts():
    # header promises m=4 rows for n=1, d=1; give only 3
    text = "1 4 1 0\n1 200\n-1 0\n1 100\n100\n"
    msg = err(text)
    assert "expected 6 lines" in msg
    assert "found 5" in msg


def test_parse_error_bad_token_names_line():
    text = "1 3 0 0\n1 200\n-1 zero\n1 100\n100\n"
    msg = err(text)
    assert "line 3" in msg
    assert "zero" in msg


def test_parse_error_wrong_field_count_names_line():
    text = "1 3 0 0\n1 200\n-1 0 0\n1 100\n100\n"
    msg = err(text)
    assert "line 3" in msg
    assert "expected 2 numbers" in msg


def test_stats_text_has_all_counters():
    stats = GenerationStats(
        candidates_drawn=10,
        rejected_distance=4,
        rejected_objective=3,
        rejected_similarity=1,
        coordinator_rejected_similarity=1,
        discarded_surplus=0,
        rounds=2,
        wall_time_ms=1.5,
    )
    text = stats_to_text(stats)
    for key in (
        "candidates_drawn = 10",
        "rejected_distance = 4",
        "rejected_objective = 3",
        "rejected_similarity = 1",
        "coordinator_rejected_similarity = 1",
        "discarded_surplus = 0",
        "rounds = 2",
        "wall_time_ms = 1.500",
    ):
        assert key in text
    assert text == (
        "candidates_drawn = 10\n"
        "rejected_distance = 4\n"
        "rejected_objective = 3\n"
        "rejected_similarity = 1\n"
        "coordinator_rejected_similarity = 1\n"
        "discarded_surplus = 0\n"
        "rounds = 2\n"
        "wall_time_ms = 1.500\n"
    )


def test_write_stats_to_path(tmp_path):
    stats = GenerationStats(0, 0, 0, 0)
    dest = tmp_path / "stats.txt"
    write_stats(stats, dest)
    assert dest.read_text() == stats_to_text(stats)


# --- templated bounding rows ------------------------------------------------


def token_text(inst):
    """Reference writer: every number formatted on its own."""
    fmt = lambda v: format(float(v), ".17g")  # noqa: E731
    lines = [f"{inst.n} {inst.m} {inst.d} {inst.params.seed}"]
    lines += [" ".join([fmt(v) for v in q.a] + [fmt(q.b)]) for q in inst.constraints]
    lines.append(" ".join(fmt(v) for v in inst.c))
    return "\n".join(lines) + "\n"


def with_support_row(inst, i, row):
    support = list(inst.support)
    support[i] = row
    return instance_from_rows(n=inst.n, support=tuple(support), random=inst.random, c=inst.c,
                              params=inst.params)


@pytest.mark.parametrize("n, alpha", [(1, 200.0), (3, 64.0), (20, 1e-3), (7, 3.0e300)])
def test_bounding_rows_written_like_every_token(n, alpha):
    inst = _synthetic_instance(n, 2, n)
    inst = instance_from_rows(n=n, support=tuple(build_support(n, alpha)), random=inst.random,
                              c=inst.c,
                              params=GeneratorParams(n=n, d=2, alpha=alpha, theta=alpha / 4))
    text = instance_to_text(inst)
    assert text == token_text(inst)
    assert read_instance(io.StringIO(text)) == inst


def test_negative_zero_in_a_bounding_row_is_still_written_as_minus_zero():
    inst = _synthetic_instance(2, 1, 0)
    # -x_0 <= 0 with a -0.0 coefficient, and with a -0.0 right-hand side
    for row in (Inequality([-1.0, -0.0], 0.0), Inequality([-1.0, 0.0], -0.0)):
        tampered = with_support_row(inst, 2, row)
        text = instance_to_text(tampered)
        assert text == token_text(tampered)
        assert "-0" in text.splitlines()[3].split()
        back = read_instance(io.StringIO(text))
        assert back.support[2].a.tobytes() == row.a.tobytes()
        assert np.float64(back.support[2].b).tobytes() == np.float64(row.b).tobytes()


@pytest.mark.parametrize("row", [
    Inequality([1.0, 0.0, 0.0], 200.0000000001),   # rhs off alpha
    Inequality([1.0, 1e-300, 0.0], 200.0),          # a stray tiny coefficient
    Inequality([1.0, 1.0, 1.0], 500.0),             # the diagonal in the wrong place
    Inequality([np.nan, 0.0, 0.0], 200.0),
])
def test_non_canonical_bounding_rows_go_through_the_token_path(row):
    inst = with_support_row(_synthetic_instance(3, 1, 0), 0, row)
    assert instance_to_text(inst) == token_text(inst)


def test_alpha_spelled_another_way_reads_through_the_slow_path(monkeypatch):
    import randlp.io as rio

    inst = _synthetic_instance(2, 3, 0)
    lines = instance_to_text(inst).splitlines()
    for i in (1, 2):  # rows x_j <= alpha
        lines[i] = lines[i].replace(" 200", " 200.0")
    assert lines[1] == "1 0 200.0"
    parsed = []
    floats = rio._floats
    monkeypatch.setattr(rio, "_floats", lambda line, no, count: parsed.append(no) or floats(line, no, count))
    blocks = []
    parse_block = rio._parse_block
    monkeypatch.setattr(rio, "_parse_block", lambda lines, nos, n: blocks.append(
        list(nos)) or parse_block(lines, nos, n))
    back = read_instance(io.StringIO("\n".join(lines) + "\n"))
    assert back == inst
    assert back.params.alpha == 200.0
    # line 2 gives alpha; lines 2 and 3 differ from the template and are
    # parsed in one block with the random rows; the other bounding rows
    # match it; the objective is always parsed
    assert parsed == [2, 10]
    assert blocks == [[2, 3, 7, 8, 9]]


def test_bounding_lines_spelled_another_way_stay_in_closed_form():
    # every 0 of the bounding lines spelled 0.0, and 1 as 1.0: each line
    # differs from its template, but each row is bitwise the canonical one
    inst, _ = generate_sequential(GeneratorParams(n=4, d=3, seed=1))
    text = instance_to_text(inst)
    lines = text.splitlines()
    for i in range(1, 2 * inst.n + 2):
        lines[i] = " ".join(t if t not in ("0", "1", "-1") else t + ".0"
                            for t in lines[i].split())
    assert lines[1] == "1.0 0.0 0.0 0.0 200"
    back = read_instance(io.StringIO("\n".join(lines) + "\n"))
    assert back.bounding.edits == {}
    assert back == inst
    assert instance_to_text(back) == text
    # a -0.0 is not bitwise the canonical 0, so that row stays an edit
    lines[2] = "-0 1 0 0 200"
    back = read_instance(io.StringIO("\n".join(lines) + "\n"))
    assert list(back.bounding.edits) == [1]
    assert instance_to_text(back).splitlines()[2] == "-0 1 0 0 200"


# --- non-finite tokens --------------------------------------------------------


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_token_is_a_parse_error_naming_the_line(token):
    inst, _ = generate_sequential(GeneratorParams(n=2, d=2, seed=42))
    lines = instance_to_text(inst).splitlines()
    for line_no in range(2, len(lines) + 1):
        for k in range(len(lines[line_no - 1].split())):
            toks = lines[line_no - 1].split()
            toks[k] = token
            bad = lines[: line_no - 1] + [" ".join(toks)] + lines[line_no:]
            msg = err("\n".join(bad) + "\n")
            assert msg.startswith(f"line {line_no}:"), msg
            assert "finite" in msg


def test_overflowing_diagonal_matches_the_template_yet_is_refused():
    n, alpha = 3, 1e308
    inst = instance_from_rows(n=n, support=tuple(build_support(n, alpha)), random=(),
                              c=build_objective(n, 1.0), params=GeneratorParams(n=n, alpha=alpha))
    text = instance_to_text(inst)
    assert text.splitlines()[7] == "1 1 1 inf"
    assert err(text).startswith("line 8:")


def test_finite_row_whose_sum_overflows_still_reads():
    inst = _synthetic_instance(2, 0, 0)
    row = Inequality([1.7e308, 1.7e308], 1.7e308)
    big = instance_from_rows(n=2, support=inst.support, random=(row,), c=inst.c,
                             params=inst.params)
    assert read_instance(io.StringIO(instance_to_text(big))) == big


def test_undecodable_input_is_a_parse_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe1 3 0 7\n")
    with pytest.raises(ParseError):
        read_instance(bad)
    with open(bad, encoding="utf-8") as fh, pytest.raises(ParseError, match="byte 0"):
        read_instance(fh)


# --- streaming write and the block parse of the random rows -----------------


class RecordingFile:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_write_instance_streams_chunks_equal_to_the_text():
    inst, _ = generate_sequential(GeneratorParams(n=300, d=5, seed=0))
    text = instance_to_text(inst)
    dest = RecordingFile()
    write_instance(inst, dest)
    assert len(dest.writes) > 1
    assert max(map(len, dest.writes)) < len(text)
    assert "".join(dest.writes) == text


@pytest.mark.parametrize("extra", [-1, 1])
def test_writer_refuses_a_block_of_other_than_2n_plus_1_rows(extra):
    # the text holds 2n+1 bounding rows; an instance of fewer or more is
    # refused when it would be built, so the writer never meets one
    inst, _ = generate_sequential(GeneratorParams(n=2, d=3, seed=0))
    rows = inst.support + inst.random[:1] if extra > 0 else inst.support[:-1]
    with pytest.raises(ValueError, match=f"expected 2n\\+1 = 5 bounding rows, got {5 + extra}"):
        instance_from_rows(n=2, support=rows, random=inst.random, c=inst.c, params=inst.params)


finite_bits = st.integers(0, 2**64 - 1).filter(
    lambda bits: math.isfinite(float(np.uint64(bits).view(np.float64)))
)


@given(st.lists(finite_bits, min_size=6, max_size=6),
       st.sampled_from(["%.17g", "%r", "%.25e"]))
@settings(max_examples=300, deadline=None)
def test_block_parse_equals_float_bit_for_bit(bits, spelling):
    values = np.array(bits, dtype=np.uint64).view(np.float64).tolist()
    lines = [" ".join(spelling % v for v in values[k : k + 3]) for k in (0, 3)]
    block = rio._parse_block(lines, [7, 8], 2)
    want = np.array([[float(t) for t in line.split()] for line in lines])
    assert block.tobytes() == want.tobytes()


def test_first_bad_line_of_the_merged_parse_is_reported():
    # line 3, a bounding line spelled another way, and line 7, a random
    # line, are both corrupt: the bounding line comes first
    lines = instance_to_text(_synthetic_instance(2, 2, 0)).splitlines()
    assert lines[2] == "0 1 200"
    lines[2] = "0.0 1 x"
    lines[6] = "1 # 3"
    with pytest.raises(ParseError, match=r"^line 3: not a number among: '0.0 1 x'$"):
        read_instance(io.StringIO("\n".join(lines) + "\n"))


def test_overflowing_diagonal_line_with_a_finite_rhs_is_an_edit():
    # at n = 3 and alpha = 1e308 the diagonal's rhs 2.5e308 overflows, so
    # its line is parsed even though it matches no template
    lines = ["3 7 0 0", "1 0 0 1e+308", "0 1 0 1e+308", "0 0 1 1e+308",
             "-1 0 0 0", "0 -1 0 0", "0 0 -1 0", "1 1 1 1e+308", "1.5 1 0.5"]
    back = read_instance(io.StringIO("\n".join(lines) + "\n"))
    assert back.bounding.edits.keys() == {6}
    # the overflowing diagonal is structural, as validate_params states it,
    # and ends the check; so is 6*f(h) = 9e308 for f(h) = 0.5*5e307*6; rho
    # below the file's theta 0.5
    report = validate_instance(replace(back, params=replace(back.params, rho=0.25)))
    assert [(v.constraint, v.condition) for v in report.violations] == [
        (-1, "(n-1)*alpha + alpha/2 finite"), (-1, "6*theta*alpha/2*n*(n+1)/2 finite")
    ]


def _random_line_read(replace_line):
    """Read an n=2, d=2 instance whose first random line (line 7) is
    replaced: the values of that row, or the ParseError message."""
    lines = instance_to_text(_synthetic_instance(2, 2, 0)).splitlines()
    lines[6] = replace_line
    try:
        inst = read_instance(io.StringIO("\n".join(lines) + "\n"))
    except ParseError as e:
        return str(e)
    return inst.random[0].a.tolist() + [inst.random[0].b]


@pytest.mark.parametrize("line, want", [
    ("1_0 2 3", [10.0, 2.0, 3.0]),
    ("\u0661 \u0662 \u0663", [1.0, 2.0, 3.0]),  # Arabic-Indic digits
    ("1\u20032\u20033", [1.0, 2.0, 3.0]),       # em spaces between numbers
    ("1 # 3", "line 7: not a number among: '1 # 3'"),
    ("", "line 7: expected 3 numbers, found 0"),
    ("1 nan 3", "line 7: not a finite number among: '1 nan 3'"),
    ("1 2 -inf", "line 7: not a finite number among: '1 2 -inf'"),
    ("1 2", "line 7: expected 3 numbers, found 2"),
])
def test_lines_the_block_parse_refuses_read_as_before(line, want):
    assert _random_line_read(line) == want
