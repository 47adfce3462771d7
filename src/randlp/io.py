"""Plain-text instance format and stats reporting.

Layout, whitespace separated, one float per ``%.17g`` (binary64 round-trips
exactly):

    n m d seed
    <m constraint rows: n coefficients then the right-hand side>
    <n objective coefficients>

Bounding rows come first in canonical order, then the accepted random rows in
acceptance order.  The header is redundant on purpose: m must equal 2n+1+d.

Bounding rows are mostly zeros, so both directions use a template: the text
of each canonical row of ``build_support(n, alpha)``, built one row at a time
from ``support_layout`` with ``_fmt(alpha)`` and ``_fmt((n-1)*alpha +
alpha/2)``.  The writer emits the template for a row that is bitwise
canonical, and formats any other row (say one holding -0.0 or nan) with one
``%`` over all its numbers; either way the bytes are exactly those of
formatting every token on its own.
The reader takes the canonical row for a line equal to its template and
parses every other line token by token.  Every number read must be finite.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .model import GenerationStats, GeneratorParams, Inequality, LPInstance
from .support import support_layout, support_row


class ParseError(ValueError):
    """Malformed instance text; the message carries the offending line."""


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _text(values: list[float]) -> str:
    """The values as space separated ``%.17g`` tokens: the conversion
    ``format(v, ".17g")`` makes, applied by one ``%`` over the row."""
    return " ".join(["%.17g"] * len(values)) % tuple(values)


def _row_text(q: Inequality) -> str:
    # tolist() gives the same binary64 values as Python floats, without a
    # float() call per number
    return _text(q.a.tolist() + [q.b])


def _bits(v: float) -> np.uint64:
    return np.float64(v).view(np.uint64)


def _layout_text(n: int, j, coef: float, rhs: float) -> str:
    """What ``_row_text`` gives for the row (j, coef, rhs) of
    ``support_layout``, built without formatting every zero."""
    tok = _fmt(coef) + " "
    if j is None:
        return tok * n + _fmt(rhs)
    return "0 " * j + tok + "0 " * (n - 1 - j) + _fmt(rhs)


def _is_layout_row(q: Inequality, n: int, j, coef: float, rhs: float) -> bool:
    """q is bitwise the row (j, coef, rhs) of ``support_layout``."""
    if q.a.shape != (n,) or _bits(q.b) != _bits(rhs):
        return False
    bits = q.a.view(np.uint64)
    if j is None:
        return bool(np.all(bits == _bits(coef)))
    return bool(bits[j] == _bits(coef)) and np.count_nonzero(bits) == 1


def instance_to_text(inst: LPInstance) -> str:
    n = inst.n
    lines = [f"{n} {inst.m} {inst.d} {inst.params.seed}"]
    layout = support_layout(n, float(inst.params.alpha))
    for q, spec in zip(inst.support, layout):
        lines.append(_layout_text(n, *spec) if _is_layout_row(q, n, *spec) else _row_text(q))
    # a support tuple longer than 2n+1 keeps its extra rows
    for q in inst.support[2 * n + 1 :] + inst.random:
        lines.append(_row_text(q))
    lines.append(_text(inst.c.tolist()))
    return "\n".join(lines) + "\n"


def _write_text(text: str, dest) -> None:
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text)


def write_instance(inst: LPInstance, dest) -> None:
    """Serialize to a path or a writable text file object."""
    _write_text(instance_to_text(inst), dest)


def _floats(line: str, line_no: int, count: int) -> list[float]:
    toks = line.split()
    if len(toks) != count:
        raise ParseError(f"line {line_no}: expected {count} numbers, found {len(toks)}")
    try:
        vals = [float(t) for t in toks]
    except ValueError:
        raise ParseError(f"line {line_no}: not a number among: {line.strip()!r}") from None
    # A sum with a nan or inf term is not finite; a finite row whose sum
    # overflows is checked term by term.
    if not math.isfinite(sum(vals)) and not all(map(math.isfinite, vals)):
        raise ParseError(f"line {line_no}: not a finite number among: {line.strip()!r}")
    return vals


def _parse_row(line: str, line_no: int, n: int) -> Inequality:
    vals = _floats(line, line_no, n + 1)
    return Inequality(vals[:n], vals[n])


def read_instance(source) -> LPInstance:
    """Parse a path or readable text file object back into an instance.

    The stored format does not carry every generation knob; alpha and theta
    are recovered from the first bounding row and the last objective
    coefficient, the remaining parameters stay at their defaults.
    """
    try:
        text = source.read() if hasattr(source, "read") else Path(source).read_text()
    except UnicodeDecodeError as err:
        raise ParseError(f"byte {err.start}: not {err.encoding} text") from None
    lines = text.splitlines()
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

    # The first bounding row carries alpha, which sets the text expected of
    # every bounding row.  A line that differs from that text, even by
    # spelling a number another way, is parsed token by token.
    alpha = _parse_row(lines[1], 2, n).b
    rows = []
    for i, (j, coef, rhs) in enumerate(support_layout(n, alpha)):
        line = lines[1 + i]
        # alpha is finite, but the diagonal's rhs can overflow to inf
        if math.isfinite(rhs) and line == _layout_text(n, j, coef, rhs):
            rows.append(support_row(n, j, coef, rhs))
        else:
            rows.append(_parse_row(line, 2 + i, n))
    rows.extend(_parse_row(lines[1 + i], 2 + i, n) for i in range(2 * n + 1, m))
    c = np.array(_floats(lines[1 + m], m + 2, n))

    support = tuple(rows[: 2 * n + 1])
    random = tuple(rows[2 * n + 1 :])
    params = GeneratorParams(
        n=n, d=d, seed=seed, alpha=float(support[0].b), theta=float(c[-1])
    )
    return LPInstance(n=n, support=support, random=random, c=c, params=params)


def stats_to_text(stats: GenerationStats) -> str:
    lines = [
        f"candidates_drawn = {stats.candidates_drawn}",
        f"rejected_distance = {stats.rejected_distance}",
        f"rejected_objective = {stats.rejected_objective}",
        f"rejected_similarity = {stats.rejected_similarity}",
        f"coordinator_rejected_similarity = {stats.coordinator_rejected_similarity}",
        f"discarded_surplus = {stats.discarded_surplus}",
        f"rounds = {stats.rounds}",
        f"wall_time_ms = {stats.wall_time_ms:.3f}",
    ]
    return "\n".join(lines) + "\n"


def write_stats(stats: GenerationStats, dest) -> None:
    _write_text(stats_to_text(stats), dest)
