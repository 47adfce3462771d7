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
alpha/2)``.  The writer emits the template for each row the instance's
``BoundingBlock`` holds in closed form, and formats each of its edited rows
(say one holding -0.0 or nan) with one ``%`` over all its numbers; the random
rows are formatted from their array with one ``%`` per row.  Either way the
bytes are exactly those of formatting every token on its own.  The writer
hands the text out line by line, so a file is written without the whole text
in memory; the file object buffers it.  An instance holds exactly its 2n+1
bounding rows under its own alpha (its constructors refuse any other), so
every instance has a text.

The reader keeps a bounding line equal to its template in closed form.  It
parses every other bounding line (``200.0`` for ``200``, say) together with
the d random lines, as one block with ``np.loadtxt``, which converts each
number as ``float`` does; ``BoundingBlock.from_rows`` then keeps a parsed
bounding row in closed form too when it is bitwise the canonical one.  When
the block parse raises, gives another shape or a number that is not finite,
the lines are parsed token by token instead, which also accepts what only
``float`` accepts (``1_0``, digits of other scripts) and raises the
``ParseError`` of the first bad line.  Every number read must be finite.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .model import (
    BoundingBlock,
    GenerationStats,
    GeneratorParams,
    Inequality,
    LPInstance,
    diagonal_rhs,
    support_layout,
)


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


def _templates(n: int, alpha: float):
    """What ``_row_text`` gives for each row of ``support_layout(n, alpha)``,
    in order, built without formatting every zero."""
    zeros = "0 " * n
    for j, coef, rhs in support_layout(n, alpha):
        tok = _fmt(coef) + " "
        if j is None:
            yield tok * n + _fmt(rhs)
        else:
            yield zeros[: 2 * j] + tok + zeros[: 2 * (n - 1 - j)] + _fmt(rhs)


def _lines(inst: LPInstance):
    """The lines of the text of inst, each with its newline."""
    n = inst.n
    block = inst.bounding
    yield f"{n} {inst.m} {inst.d} {inst.params.seed}\n"
    for i, template in enumerate(_templates(n, block.alpha)):
        q = block.edits.get(i)
        yield (template if q is None else _row_text(q)) + "\n"
    row_format = " ".join(["%.17g"] * (n + 1)) + "\n"
    for a, b in zip(inst.random_a, inst.random_b.tolist()):
        yield row_format % (*a.tolist(), b)
    yield _text(inst.c.tolist()) + "\n"


def instance_to_text(inst: LPInstance) -> str:
    return "".join(_lines(inst))


def _write_text(lines, dest) -> None:
    if hasattr(dest, "write"):
        for line in lines:
            dest.write(line)
    else:
        # a buffer larger than a line of thousands of numbers, which the
        # default 8 KiB one would pass to the system one write per line
        with open(dest, "w", buffering=1 << 16) as f:
            for line in lines:
                f.write(line)


def write_instance(inst: LPInstance, dest) -> None:
    """Serialize to a path or a writable text file object, line by line;
    the file object buffers the text."""
    _write_text(_lines(inst), dest)


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


def _parse_block(lines: list[str], line_nos: list[int], n: int) -> np.ndarray:
    """The rows of n coefficients and a right-hand side on ``lines``, each
    line ``lines[k]`` line ``line_nos[k]`` of the text, as one
    (len(lines), n+1) array."""
    if not lines:
        return np.empty((0, n + 1))
    try:
        block = np.loadtxt(lines, dtype=np.float64, ndmin=2, comments=None)
    except ValueError:
        block = None
    if block is None or block.shape != (len(lines), n + 1) or not np.isfinite(block).all():
        block = np.array([_floats(line, no, n + 1) for line, no in zip(lines, line_nos)])
    return block


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

    # The first bounding row carries alpha, which sets the text expected of
    # every bounding row.  A line that differs from that text, even by
    # spelling a number another way, and the diagonal's line when its
    # right-hand side overflows, are parsed with the random lines;
    # ``BoundingBlock.from_rows`` keeps such a row in closed form when it is
    # bitwise the canonical one.
    alpha = _floats(lines[1], 2, n + 1)[n]
    first = 2 * n + 1
    overflow = not math.isfinite(diagonal_rhs(n, alpha))
    picked = [i for i, template in enumerate(_templates(n, alpha))
              if lines[1 + i] != template or (overflow and i == 2 * n)]
    k = len(picked)
    picked += range(first, m)
    block = _parse_block([lines[1 + i] for i in picked], [2 + i for i in picked], n)
    rows = [None] * first
    for i, row in zip(picked[:k], block[:k]):
        rows[i] = Inequality(row[:n], row[n])
    c = np.array(_floats(lines[1 + m], m + 2, n))

    params = GeneratorParams(n=n, d=d, seed=seed, alpha=alpha, theta=float(c[-1]))
    return LPInstance.from_arrays(
        n, BoundingBlock.from_rows(n, alpha, rows), block[k:, :n], block[k:, n], c, params
    )


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
    _write_text([stats_to_text(stats)], dest)
