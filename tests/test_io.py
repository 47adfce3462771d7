import io
import math
import os
import random
import threading
import tracemalloc
import warnings
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

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
from randlp.model import BoundingBlock, diagonal_rhs

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
    row = "".join(rio._row_pieces(np.array([values])))[:-1]
    assert row == " ".join(format(v, ".17g") for v in values)
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
    # parsed in a group of their own, then the random rows in one; the other
    # bounding rows match it; the objective is always parsed
    assert parsed == [2, 10]
    assert blocks == [[2, 3], [7, 8, 9]]


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


def test_write_instance_hands_the_file_64_kib_or_more_per_write():
    inst, _ = generate_sequential(GeneratorParams(n=300, d=5, seed=0))
    dest = RecordingFile()
    write_instance(inst, dest)
    assert min(map(len, dest.writes[:-1])) >= 1 << 16


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


# --- the line-by-line reader against the former whole-text one ---------------


def former_templates(n, alpha):
    """The text of each canonical bounding row under alpha, in order, as the
    whole-text reader built it."""
    zeros = "0 " * n
    block = BoundingBlock.canonical(n, alpha)
    for j, coef, rhs in map(block.spec, range(2 * n + 1)):
        tok = rio._fmt(coef) + " "
        if j is None:
            yield tok * n + rio._fmt(rhs)
        else:
            yield zeros[: 2 * j] + tok + zeros[: 2 * (n - 1 - j)] + rio._fmt(rhs)


def former_read_instance(source):
    """``read_instance`` as it was when it held the whole text and all its
    lines at once."""
    try:
        text = source.read() if hasattr(source, "read") else Path(source).read_text()
    except UnicodeDecodeError as err:
        raise ParseError(f"byte {err.start}: not {err.encoding} text") from None
    lines = text.splitlines()
    del text
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty input")

    head = lines[0].split()
    if len(head) != 4:
        raise ParseError(f"line 1: expected 'n m d seed', found {len(head)} fields")
    try:
        n, m, d, seed = (int(t) for t in head)
    except ValueError:
        raise ParseError("line 1: header fields must be integers") from None
    if n < 1:
        raise ParseError(f"line 1: n must be >= 1, got {n}")
    if d < 0:
        raise ParseError(f"line 1: d must be >= 0, got {d}")
    if m != 2 * n + 1 + d:
        raise ParseError(f"line 1: m = {m} inconsistent with 2n+1+d = {2 * n + 1 + d}")
    if not 0 <= seed < 2**64:
        raise ParseError("line 1: seed must be a 64-bit unsigned integer")

    expected_lines = 1 + m + 1
    if len(lines) != expected_lines:
        raise ParseError(
            f"expected {expected_lines} lines (header, {m} constraint rows, "
            f"objective), found {len(lines)}"
        )

    alpha = rio._floats(lines[1], 2, n + 1)[n]
    first = 2 * n + 1
    overflow = not math.isfinite(diagonal_rhs(n, alpha))
    picked = [i for i, template in enumerate(former_templates(n, alpha))
              if lines[1 + i] != template or (overflow and i == 2 * n)]
    k = len(picked)
    picked += range(first, m)
    block = rio._parse_block([lines[1 + i] for i in picked], [2 + i for i in picked], n)
    rows = [None] * first
    for i, row in zip(picked[:k], block[:k]):
        rows[i] = Inequality(row[:n], row[n])
    c = np.array(rio._floats(lines[1 + m], m + 2, n))

    params = GeneratorParams(n=n, d=d, seed=seed, alpha=alpha, theta=float(c[-1]))
    return LPInstance(
        n, BoundingBlock.from_rows(n, alpha, rows), block[k:, :n], block[k:, n], c, params
    )


# every character at which str.splitlines breaks a line
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]

OVERFLOWING_DIAGONAL = ["3 7 0 0", "1 0 0 1e+308", "0 1 0 1e+308", "0 0 1 1e+308",
                        "-1 0 0 0", "0 -1 0 0", "0 0 -1 0", "1 1 1 1e+308", "1.5 1 0.5"]


def parity_texts():
    """Generated texts and texts made from them: lines deleted, duplicated,
    swapped or blank, every line break of ``str.splitlines``, bad tokens,
    numbers spelled another way; each a (name, text) pair."""
    gen = random.Random(25)
    texts = [("overflowing diagonal", "\n".join(OVERFLOWING_DIAGONAL) + "\n"),
             ("empty", ""), ("only blank lines", " \n\t\n\n"),
             ("a header alone", "1 3 0 7\n"), ("a header claiming n = 10^9",
                                               "1000000000 2000000001 0 0\n1 200\n-1 0\n")]
    # at the defaults n = 1 takes no random row; the synthetic ones take
    # awkward floats
    bases = [generate_sequential(GeneratorParams(n=n, d=d, seed=seed))[0]
             for n, d, seed in [(1, 0, 7), (1, 0, 11), (2, 5, 42), (2, 3, 0), (3, 4, 5),
                                (4, 6, 1), (8, 6, 3)]]
    bases += [_synthetic_instance(n, d, seed) for n, d, seed in [(1, 3, 1), (2, 2, 0), (5, 2, 9)]]
    for inst in bases:
        n, d, seed = inst.n, inst.d, inst.params.seed
        base = instance_to_text(inst)
        lines = base.splitlines()
        first, count = 2 * n + 2, len(lines)  # the first random line is lines[first]
        case = lambda name, ls, end="\n": texts.append(  # noqa: E731
            (f"n={n} d={d} seed={seed}: {name}", end.join(ls) + end))
        case("as written", lines)
        texts.append((f"n={n} d={d} seed={seed}: no newline at the end", base[:-1]))
        k = gen.randrange(1, count)
        case(f"line {k + 1} deleted", lines[:k] + lines[k + 1:])
        case(f"line {k + 1} duplicated", lines[:k + 1] + lines[k:])
        i, j = sorted(gen.sample(range(1, count), 2))
        case(f"lines {i + 1} and {j + 1} swapped",
             lines[:i] + [lines[j]] + lines[i + 1:j] + [lines[i]] + lines[j + 1:])
        for blank in ("", "   ", "\t \x1f"):
            k = gen.randrange(1, count)
            case(f"{blank!r} before line {k + 1}", lines[:k] + [blank] + lines[k:])
            case(f"{blank!r} at the end", lines + [blank, blank])
        for brk in LINE_BREAKS:
            case(f"{brk!r} ends every line", lines, end=brk)
            k = gen.randrange(count)
            inner = lines[k].replace(" ", brk, 1) if " " in lines[k] else lines[k] + brk
            case(f"{brk!r} inside line {k + 1}", lines[:k] + [inner] + lines[k + 1:])
        bad = {"line 2": 1, "a bounding line": gen.randrange(2, first - 1),
               "the objective": count - 1}
        if d:
            bad["a random line"] = gen.randrange(first, count - 1)
        for where, k in bad.items():
            toks = lines[k].split()
            toks[gen.randrange(len(toks))] = gen.choice(["x", "nan", "1e999", "--1", ""])
            tampered = lines[:k] + [" ".join(toks)] + lines[k + 1:]
            case(f"a bad token in {where}", tampered)
            case(f"a bad token in {where} and a line short", tampered[:-1])
            case(f"a bad token in {where} and a line more", tampered + ["1"])
        respelled = [" ".join(t + ".0" if t == "200" else t for t in line.split())
                     for line in lines[1:first - 1]]
        case("200 spelled 200.0", lines[:1] + respelled + lines[first - 1:])
        k = gen.randrange(1, first - 1)
        case(f"-0 in line {k + 1}", lines[:k] + [lines[k].replace("0", "-0", 1)] + lines[k + 1:])
    return texts


def outcome(reader, make_source):
    """What reader makes of a new source from make_source: the instance's
    text, params, edited bounding rows and the instance, or the type and
    message of the error."""
    source = make_source()
    try:
        inst = reader(source)
    except ValueError as e:
        return type(e).__name__, str(e)
    finally:
        if hasattr(source, "close"):
            source.close()
    return instance_to_text(inst), inst.params, sorted(inst.bounding.edits), inst


class ReadOnly:
    """A text source with a ``read`` method and nothing else."""

    def __init__(self, text):
        self._text = io.StringIO(text)

    def read(self, size=-1):
        return self._text.read(size)


def parity_sources(path, text):
    return {
        "StringIO": lambda: io.StringIO(text),
        "read() alone": lambda: ReadOnly(text),
        "path": lambda: path,
        "open(path)": lambda: open(path, encoding="utf-8"),
        # a file object that cuts a "\r\n" in two
        "open(path, newline='\\r')": lambda: open(path, encoding="utf-8", newline="\r"),
    }


def test_the_line_by_line_reader_reads_as_the_whole_text_reader(tmp_path):
    path = tmp_path / "case.txt"
    cases = parity_texts()
    errors = set()
    for name, text in cases:
        path.write_bytes(text.encode("utf-8"))
        for how, make in parity_sources(path, text).items():
            got = outcome(read_instance, make)
            assert got == outcome(former_read_instance, make), (name, how)
            if got[0] == "ParseError":
                errors.add("count" if got[1].startswith("expected") else got[1].split(":")[0])
    assert len(cases) > 400
    # the sweep reaches each header error, the line count and bad lines
    assert {"empty input", "line 1", "count", "line 2", "line 3"} <= errors, errors


@pytest.mark.parametrize("size", [1, 2, 3, 7])
def test_pieces_of_any_size_read_as_the_whole_text(tmp_path, monkeypatch, size):
    # pieces this small end between a "\r" and its "\n", inside a line break
    # of several bytes and inside a trailing blank line
    monkeypatch.setattr(rio, "_BATCH", size)
    path = tmp_path / "case.txt"
    for name, text in parity_texts()[::3]:
        path.write_bytes(text.encode("utf-8"))
        for how, make in parity_sources(path, text).items():
            assert outcome(read_instance, make) == outcome(former_read_instance, make), (name, how)


def test_a_byte_that_does_not_decode_is_named_by_its_offset_in_the_file(tmp_path):
    # 500 bytes before the end of a 684.8 kB text, far past the first chunk
    # a text file object decodes
    inst, _ = generate_sequential(GeneratorParams(n=400, d=5, seed=1))
    data = instance_to_text(inst).encode()
    path = tmp_path / "bad.txt"
    path.write_bytes(data[:-500] + b"\xff" + data[-499:])
    assert len(data) - 500 == 684305
    want = "byte 684305: not utf-8 text"
    with pytest.raises(ParseError, match=f"^{want}$"):
        read_instance(path)
    with open(path, encoding="utf-8") as fh, pytest.raises(ParseError, match=f"^{want}$"):
        read_instance(fh)
    # a pipe, whose place cannot be told, through a file object as stdin
    # reads one and, where there is /dev/fd, through a path as
    # ``randlp validate --in /dev/stdin`` reads one
    pipe_sources = [lambda r: open(r, encoding="utf-8", closefd=False)]
    if Path("/dev/fd").is_dir():
        pipe_sources.append(lambda r: f"/dev/fd/{r}")
    for make in pipe_sources:
        r, w = os.pipe()
        writer = threading.Thread(target=lambda: (os.write(w, path.read_bytes()), os.close(w)))
        writer.start()
        source = make(r)
        try:
            with pytest.raises(ParseError, match=f"^{want}$"):
                read_instance(source)
        finally:
            if hasattr(source, "close"):
                source.close()
            writer.join(timeout=30)
            os.close(r)
        assert not writer.is_alive()
    # a file object that has decoded text ahead of its caller, here past the
    # first line, names the byte as the whole-text reader did: from where
    # that reader's read began
    path.write_bytes(b"a first line the caller reads\n" + data[:-500] + b"\xff" + data[-499:])

    def read_ahead():
        fh = open(path, encoding="utf-8")
        fh.readline()
        return fh

    got = outcome(read_instance, read_ahead)
    assert got[1].startswith("byte ")
    assert got == outcome(former_read_instance, read_ahead)
    path.write_bytes(b"a first line the caller reads\n" + data)
    assert outcome(read_instance, read_ahead)[-1] == inst
    # the byte is reported before a bad header, line count or line 2, and
    # so is a character cut off by the end of the input
    lines = data.splitlines(keepends=True)
    for bad in (b"1 2 3\n" + b"".join(lines[1:]), b"".join(lines[:-2] + lines[-1:]),
                lines[0] + b"x\n" + b"".join(lines[2:])):
        for tail in (b"\xff\n", "\u2028".encode()[:2]):
            path.write_bytes(bad + tail)
            for make in (lambda: path, lambda: open(path, encoding="utf-8")):
                got = outcome(read_instance, make)
                assert got[1].startswith("byte ")
                assert got == outcome(former_read_instance, make)


def test_lines_across_batches_read_as_the_whole_text_reader(tmp_path):
    # a text of several of the reader's batches, its lines ended by "\r\n",
    # which a file object opened with newline="\r" cuts in two, by "\r" or by
    # "\x85"
    inst, _ = generate_sequential(GeneratorParams(n=200, d=20, seed=3))
    lines = instance_to_text(inst).splitlines()
    assert len("\n".join(lines)) > 3 * rio._BATCH
    path = tmp_path / "batches.txt"
    for end in ("\r\n", "\r", "\x85"):
        text = end.join(lines) + end
        path.write_bytes(text.encode("utf-8"))
        for make in (lambda: io.StringIO(text), lambda: path,
                     lambda: open(path, encoding="utf-8", newline="\r")):
            got = outcome(read_instance, make)
            assert got[-1] == inst
            assert got == outcome(former_read_instance, make)


def test_a_header_claiming_a_huge_n_allocates_nothing():
    text = "1000000000 2000000001 0 0\n1 200\n-1 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"^expected 2000000003 lines .* found 3$"):
            read_instance(io.StringIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_header_claiming_a_huge_d_allocates_only_the_rows_read():
    text = "1 1000000003 1000000000 0\n1 200\n-1 0\n1 100\n1 1\n1 2\n100\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"^expected 1000000005 lines .* found 7$"):
            read_instance(io.StringIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

def test_reading_a_path_holds_only_the_lines_it_parses(tmp_path):
    # a 15.5 MB text, nearly all of it bounding lines equal to their template
    inst, _ = generate_sequential(GeneratorParams(n=2000, d=5, seed=0))
    path = tmp_path / "big.txt"
    write_instance(inst, path)
    for make in (lambda: path, lambda: open(path, encoding="utf-8")):
        source = make()
        tracemalloc.start()
        try:
            back = read_instance(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            if hasattr(source, "close"):
                source.close()
        assert back == inst
        assert peak < 2 << 20


def test_reading_holds_one_group_and_the_random_rows(tmp_path):
    # 2.4 MB of random lines read into a 0.96 MB array; the lines were all
    # held at once, and the rows parsed from them copied once more
    inst, _ = generate_sequential(GeneratorParams(n=400, d=300, seed=1))
    path = tmp_path / "wide.txt"
    write_instance(inst, path)
    tracemalloc.start()
    try:
        back = read_instance(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == inst
    assert peak < 2 * inst.random_a.nbytes, peak


# --- parsing in groups --------------------------------------------------------


def grouped_read(monkeypatch, lines):
    """The line numbers of each group ``_parse_block`` is handed, the line
    numbers ``_floats`` parses, and the ParseError message or the
    instance, of reading ``lines``."""
    groups, floats = [], []
    parse_block, parse_floats = rio._parse_block, rio._floats
    monkeypatch.setattr(rio, "_parse_block", lambda lines, nos, n: groups.append(
        list(nos)) or parse_block(lines, nos, n))
    monkeypatch.setattr(rio, "_floats", lambda line, no, count: floats.append(
        no) or parse_floats(line, no, count))
    try:
        got = read_instance(io.StringIO("\n".join(lines) + "\n"))
    except ParseError as e:
        got = str(e)
    return groups, floats, got


@pytest.fixture(scope="module")
def lines_of_groups():
    # random lines of about 9 kB, lines 803 to 832: seven to a group
    lines = instance_to_text(_synthetic_instance(400, 30, 0)).splitlines()
    assert all(8000 < len(line) < 10_000 for line in lines[802:832])
    return lines


def test_a_bad_line_in_a_late_group_is_reported_after_good_groups(monkeypatch, lines_of_groups):
    lines = list(lines_of_groups)
    toks = lines[827].split()
    toks[3] = "#"
    lines[827] = " ".join(toks)
    groups, floats, got = grouped_read(monkeypatch, lines)
    assert got.startswith("line 828: not a number among: ")
    # the groups before it were parsed whole, no group after it
    assert len(groups) >= 4 and [no for g in groups for no in g] == list(range(803, 803 + sum(
        map(len, groups))))
    assert 828 in groups[-1]
    assert floats == [2, *range(groups[-1][0], 829)]


def test_a_bad_bounding_line_comes_before_a_bad_random_line_of_another_group(
        monkeypatch, lines_of_groups):
    lines = list(lines_of_groups)
    toks = lines[2].split()
    assert toks[:2] == ["0", "1"]
    toks[0], toks[5] = "0.0", "x"
    lines[2] = " ".join(toks)
    lines[802] = "# " + lines[802].split(" ", 1)[1]
    groups, _, got = grouped_read(monkeypatch, lines)
    assert got.startswith("line 3: not a number among: '0.0 1 0 0 0 x ")
    # the kept bounding line is a group of its own, and no random group is
    # parsed after it fails
    assert groups == [[3]]


def test_a_non_finite_number_sends_only_its_group_to_the_token_path(monkeypatch,
                                                                   lines_of_groups):
    lines = list(lines_of_groups)
    toks = lines[819].split()
    toks[7] = "nan"
    lines[819] = " ".join(toks)
    groups, floats, got = grouped_read(monkeypatch, lines)
    assert got.startswith("line 820: not a finite number among: ")
    assert 820 in groups[-1] and len(groups) >= 3
    # the groups before it were parsed by np.loadtxt alone
    assert floats == [2, *range(groups[-1][0], 821)]
    # without the nan every group is, and only line 2 and the objective go
    # through the token path
    want = read_instance(io.StringIO("\n".join(lines_of_groups) + "\n"))
    groups, floats, got = grouped_read(monkeypatch, lines_of_groups)
    assert got == want
    assert floats == [2, 833] and len(groups) >= 4


def test_a_group_of_blank_lines_is_a_parse_error_without_a_warning(monkeypatch):
    monkeypatch.setattr(rio, "_BATCH", 1)  # a group per line
    lines = instance_to_text(_synthetic_instance(2, 3, 0)).splitlines()
    lines[7] = " \t "
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=r"^line 8: expected 3 numbers, found 0$"):
            read_instance(io.StringIO("\n".join(lines) + "\n"))


# --- the %.17g formatter ----------------------------------------------------


def formatted(rows):
    """The formatter's text of a stack of rows, and the reference: every
    number formatted on its own; split at spaces, so that a failure names
    the first token that differs without a diff of the whole text."""
    rows = np.asarray(rows, dtype=np.float64)
    want = "".join(" ".join(format(float(v), ".17g") for v in row) + "\n" for row in rows)
    return "".join(rio._row_pieces(rows)).split(" "), want.split(" ")


def stack(values, cols=4):
    """values, padded with 1.5 to whole rows of cols numbers."""
    values = np.asarray(values, dtype=np.float64)
    pad = -values.size % cols
    return np.concatenate([values, np.full(pad, 1.5)]).reshape(-1, cols)


def powers_of_ten_and_neighbours(exponents):
    out = []
    for k in exponents:
        p = float(f"1e{k}")
        out += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    return np.array(out)


def test_powers_of_ten_and_their_neighbours_format_like_every_token():
    values = powers_of_ten_and_neighbours(range(-5, 18))
    got, want = formatted(stack(np.concatenate([values, -values])))
    assert got == want


def test_the_ends_of_the_positional_range_format_like_every_token():
    ends = [1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
            1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf),
            9.9999999999999995e-5, 9999999999999998.0]
    got, want = formatted(stack(ends + [-v for v in ends], cols=3))
    assert got == want


def test_values_next_to_a_power_of_ten_round_within_their_exponent():
    # 999.99999999999999 reads as 1000.0; no binary64 value rounds up to a
    # new power of ten at 17 digits, so the largest values below each power
    # must keep all their nines
    values = [999.99999999999999, 99.999999999999986, 0.00099999999999999980]
    values += [float(np.nextafter(v, 0.0)) for v in (1e3, 1e9, 1e15, 1e-2)]
    got, want = formatted(stack(values, cols=2))
    assert got == want
    assert "999.99999999999989" in " ".join(got)


def exact_ties():
    """Numbers whose exact decimal expansion has 18 significant digits, the
    last a 5, for each exponent of the positional range: x = v * 2**(D-17)
    with v * 5**(17-D) an 18-digit integer."""
    gen = np.random.default_rng(3)
    out = []
    for exp in range(-4, 16):
        five = 5 ** (17 - exp)
        lo, hi = -(-10**17 // five), min(10**18 // five, 2**53)
        for v in gen.integers(lo, hi, 40).tolist():
            v |= 1
            if 10**17 <= v * five < 10**18:
                out.append(math.ldexp(v, exp - 17))
    return np.array(out)


def test_exact_ties_at_the_18th_digit_round_half_even():
    ties = exact_ties()
    assert len(ties) > 400
    assert all(len(Decimal(v).normalize().as_tuple().digits) == 18 for v in ties)
    got, want = formatted(stack(np.concatenate([ties, -ties]), cols=9))
    assert got == want
    # 1.00000762939453125 to 1.0000076293945312, 1.00002288818359375 up
    got, want = formatted([[1 + 2**-17, 1 + 3 * 2**-17, -(1 + 5 * 2**-17)]])
    assert got == want == ["1.0000076293945312", "1.0000228881835938", "-1.0000381469726562\n"]


@pytest.mark.parametrize("special", [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                     math.nan, -math.nan, math.inf, -math.inf, 1e300, -1e-300])
def test_special_values_among_fast_ones_format_like_every_token(special):
    gen = np.random.default_rng(0)
    rows = gen.uniform(-1000.0, 1000.0, (5, 7))
    rows[0, 0] = rows[2, 3] = rows[4, 6] = special
    got, want = formatted(rows)
    assert got == want


@pytest.mark.parametrize("shape", [(1, 1), (0, 5), (1, rio._CHUNK + 3), (3, rio._CHUNK - 1),
                                   (2 * (rio._CHUNK // 401) + 5, 401)])
def test_any_stack_shape_formats_like_every_token(shape):
    gen = np.random.default_rng(1)
    rows = gen.uniform(-1.0, 1.0, shape) * 10.0 ** gen.integers(-6, 18, shape)
    got, want = formatted(rows)
    assert got == want


def test_an_instance_of_one_variable_and_no_random_rows_writes_like_every_token():
    inst, _ = generate_sequential(GeneratorParams(n=1, d=0, seed=3))
    assert instance_to_text(inst) == token_text(inst)


@given(st.lists(st.tuples(st.floats(1e-4, 1e16, exclude_max=True), st.booleans()),
                min_size=1, max_size=60),
       st.integers(1, 7))
@settings(max_examples=300, deadline=None)
def test_positional_range_formats_like_every_token(pairs, cols):
    got, want = formatted(stack([-v if neg else v for v, neg in pairs], cols))
    assert got == want


def test_only_a_product_on_a_power_of_ten_leaves_the_positional_range(monkeypatch):
    # the exponent from log10 is corrected from the product, so a value
    # next to a power of ten is written in numpy, not left to format
    left = []
    monkeypatch.setattr(rio, "_fmt", lambda v: left.append(float(v)) or format(float(v), ".17g"))
    values = powers_of_ten_and_neighbours(range(-4, 16))
    got, want = formatted(stack(values, cols=5))
    assert got == want
    below_range = float(np.nextafter(1e-4, 0.0))
    assert sorted(left) == [below_range] + [float(f"1e{k}") for k in range(-4, 16)]
