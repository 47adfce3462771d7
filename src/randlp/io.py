"""Plain-text instance format and stats reporting.

Layout, whitespace separated, one float per ``%.17g`` (binary64 round-trips
exactly):

    n m d seed
    <m constraint rows: n coefficients then the right-hand side>
    <n objective coefficients>

Bounding rows come first in canonical order, then the accepted random rows in
acceptance order.  The header is redundant on purpose: m must equal 2n+1+d.

Bounding rows are mostly zeros, so both directions use a template: the text
of each canonical row, built one row at a time by ``_template`` from
``BoundingBlock.spec`` of the canonical block.  The writer emits the template
for each row the instance's ``BoundingBlock`` holds in closed form.  Every
other row, an edited bounding row (say one holding -0.0 or nan), a random
row or the objective, goes through one formatter, ``_row_pieces``, which
turns a stack of rows into their ``%.17g`` text in numpy, at most
``_CHUNK`` = 4096 numbers per call, so that its temporaries stay near
1 MB.  It computes the 17 correctly rounded digits of each number exactly.
With D the decimal exponent, taken from log10 and corrected once from the
product, and k = 16 - D, Dekker's TwoProduct (Veltkamp's split by
2**27 + 1, no fused multiply-add) gives |x| * 10**k = p + e exactly; 10**k
is exact in binary64 for k <= 22.  Where 1e16 < p < 1e17, p is an even
integer and |e| at most half its spacing, so R = p + rint(e) is rounded
half to even as ``format`` rounds, exact ties included.  That is the
certified range: zeros, and the x with 1e-4 <= |x| < 1e16 (where ``%g``
writes positional notation) whose p lies strictly between 1e16 and 1e17.
Any other number, nan, inf, a subnormal, one outside the range or a power
of ten whose p lands on 1e16, is formatted by ``format(v, ".17g")`` on its
own.  Either way the bytes are exactly those of formatting every token on
its own.  The writer hands the text to a file object, or to the file it
opens for a path, 64 KiB or more per ``write``, so a file is written
without the whole text in memory and a long line is no system call of its
own.  An instance holds exactly its 2n+1 bounding rows under its own alpha
(its constructors refuse any other), so every instance has a text.

The reader, too, goes through the text line by line, as ``str.splitlines``
splits the whole text, and keeps only the lines it will parse.  It takes the
text from its source some at a time, about 64 KiB of it, so it holds one
such piece and the kept lines, never the whole text.  A path, and a text
file object that has decoded nothing yet, are read as bytes and decoded as
the file object decodes them, so a byte that does not decode is named by
its offset in the input, a pipe's too.  It compares each bounding line
with its template as it arrives, and builds that template only when the
line is as long as the template, so a header claiming a huge n allocates
nothing until the lines bear it out.  The bounding lines that
differ from their template (``200.0`` for ``200``, say), the diagonal's line
when its right-hand side overflows, and the d random lines are parsed after
the end of input, as one block with ``np.loadtxt``, which converts each
number as ``float`` does; ``BoundingBlock.from_rows`` then keeps a parsed
bounding row in closed form too when it is bitwise the canonical one.  When
the block parse raises, gives another shape or a number that is not finite,
the lines are parsed token by token instead, which also accepts what only
``float`` accepts (``1_0``, digits of other scripts) and raises the
``ParseError`` of the first bad line.  Every number read must be finite.
Errors are raised only once the input is read, in the order: a byte that
does not decode, the header, the line count, then the first bad line.
"""
from __future__ import annotations

import codecs
import dataclasses
import io
import math
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .model import (
    BoundingBlock,
    GenerationStats,
    GeneratorParams,
    Inequality,
    LPInstance,
)


class ParseError(ValueError):
    """Malformed instance text; the message carries the offending line."""


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# numbers formatted per call, so that the temporaries stay near 1 MB
_CHUNK = 1 << 12
# the longest %.17g token, "-2.2250738585072014e-308", and a separator
_WIDTH = 25
_COLS = np.arange(_WIDTH, dtype=np.uint8)


def _halves(a):
    """Veltkamp's split: a = hi + lo exactly, each half of 26 bits or fewer."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# 10**k, exact in binary64 for k <= 22, and its halves
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI, _POW10_LO = _halves(_POW10)
_k = np.arange(10_000, dtype=np.uint16)
# the four ASCII digits of each k as one uint32, in memory order
_DIGITS = np.stack([_k // 10**j % 10 + 48 for j in (3, 2, 1, 0)], axis=1).astype(np.uint8)
_DIGITS = _DIGITS.view(np.uint32).ravel()
# the trailing zero digits of each k written with four digits
_ZEROS = sum(_k % 10**j == 0 for j in range(1, 5)).astype(np.int8)
del _k


def _tokens(x: np.ndarray, first: int, cols: int) -> str:
    """The ``%.17g`` tokens of the numbers x, which stand at positions
    first, first+1, ... of a stack of rows of cols numbers: each followed by
    a space, or by a newline where it ends its row.  A number in the
    certified range (module docstring) is written from its 17 digits R,
    computed exactly, in positional notation; R < 10**17 there, since
    p <= 10**17 - 16 and |e| <= 8.  Any other number goes to ``format``.
    """
    n = x.size
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    # D from log10, corrected once from the product; were it still off, p
    # would fall outside (1e16, 1e17) and x would go to ``format``
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    p = a * _POW10[k]
    k += p <= 1e16
    k -= p >= 1e17
    p = a * _POW10[k]
    ah, al = _halves(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    fast &= (p > 1e16) & (p < 1e17)
    r = p.astype(np.int64) + np.rint(e).astype(np.int64)
    r[zero] = 0
    # D + 4 sorts the numbers into groups of one layout: zeros go with
    # D = 0, the numbers left to ``format`` last
    key = np.where(fast, 20 - k, 20).astype(np.int8)
    key[zero] = 4
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key[order], np.arange(22))

    # R's 17 digits in groups of 1, 4, 4, 4 and 4
    groups = np.empty((n, 5), np.intp)
    rest = r[order]
    for j, unit in enumerate((10**16, 10**12, 10**8, 10**4)):
        groups[:, j] = rest // unit
        rest -= groups[:, j] * unit
    groups[:, 4] = rest
    digits = _DIGITS[groups].view(np.uint8)[:, 3:]
    zeros = _ZEROS[groups]
    trailing = zeros[:, 0]
    for j in range(1, 5):
        trailing = np.where(groups[:, j] == 0, trailing + 4, zeros[:, j])
    last = 16 - trailing  # the index of R's last nonzero digit, < 0 for 0

    buf = np.empty((n, _WIDTH), np.uint8)
    buf[:, 0] = ord("-")
    end = np.empty(n, np.intp)  # one past each token's last column
    for d, (s, t) in enumerate(zip(bounds[:20], bounds[1:21]), -4):
        if s == t:
            continue
        row, dig, lst = buf[s:t], digits[s:t], last[s:t]
        if d >= 0:
            # digits 0..D, the point, the rest; no point without a fraction
            row[:, 1:d + 2] = dig[:, :d + 1]
            row[:, d + 2] = ord(".")
            row[:, d + 3:19] = dig[:, d + 1:]
            end[s:t] = np.where(lst > d, lst + 3, d + 2)
        else:
            # "0.", -D-1 zeros, the digits
            row[:, 1:2 - d] = np.frombuffer(b"0." + b"0" * (-d - 1), np.uint8)
            row[:, 2 - d:19 - d] = dig
            end[s:t] = lst + 3 - d
    for i in range(bounds[20], n):
        tok = _fmt(x[order[i]]).encode()
        buf[i, :len(tok)] = np.frombuffer(tok, np.uint8)
        end[i] = len(tok)

    # back to the order of x, a row of buf at a time
    cell = np.dtype((np.void, _WIDTH))
    out = np.empty_like(buf)
    out.view(cell)[order] = buf.view(cell)
    stop = np.empty_like(end)
    stop[order] = end
    keep = _COLS < stop[:, None].astype(np.uint8)
    # the sign column of a positional token; a token of ``format`` starts there
    keep[:, 0] = np.signbit(x) | (key == 20)
    keep[:, -1] = True
    out[:, -1] = ord(" ")
    out[(cols - 1 - first) % cols::cols, -1] = ord("\n")
    return out[keep].tobytes().decode("ascii")


def _row_pieces(a: np.ndarray, b: np.ndarray | None = None):
    """The text of the rows of a, each followed by its entry of b when b is
    given: one line of ``%.17g`` tokens per row, in pieces of at most
    ``_CHUNK`` numbers."""
    cols = a.shape[1] + (b is not None)
    step = max(1, _CHUNK // cols)
    for i in range(0, len(a), step):
        rows = a[i:i + step] if b is None else np.column_stack((a[i:i + step], b[i:i + step]))
        flat = rows.ravel()
        for s in range(0, flat.size, _CHUNK):
            yield _tokens(flat[s:s + _CHUNK], s, cols)


def _template(n: int, j, coef: float, rhs: float, size: int | None = None):
    """The text of the canonical bounding row ``(j, coef, rhs)`` of
    ``BoundingBlock.spec``, built without formatting every zero; None when
    ``size`` is given and the text is not that long, which is known before
    it is built."""
    tok, end = _fmt(coef) + " ", _fmt(rhs)
    if size is not None:
        coefs = n if j is None else 1
        if size != coefs * len(tok) + 2 * (n - coefs) + len(end):
            return None
    if j is None:
        return tok * n + end
    return "0 " * j + tok + "0 " * (n - 1 - j) + end


def _lines(inst: LPInstance):
    """The text of inst in pieces: a line, or the lines of up to
    ``_CHUNK`` numbers."""
    n = inst.n
    block = inst.bounding
    yield f"{n} {inst.m} {inst.d} {inst.params.seed}\n"
    for i in range(2 * n + 1):
        q = block.edits.get(i)
        if q is None:
            yield _template(n, *block.spec(i)) + "\n"
        else:
            yield from _row_pieces(q.a[None], np.array([q.b]))
    yield from _row_pieces(inst.random_a, inst.random_b)
    yield from _row_pieces(inst.c[None])


def instance_to_text(inst: LPInstance) -> str:
    return "".join(_lines(inst))


# the writer hands the text to its destination this many characters or more
# at a time: a line of thousands of numbers passes an 8 KiB buffer, stdout's
# say, as a system call of its own
_PIECE = 1 << 16


def _write_text(pieces, dest) -> None:
    if not hasattr(dest, "write"):
        with open(dest, "w") as f:
            _write_text(pieces, f)
        return
    held, size = [], 0
    for piece in pieces:
        held.append(piece)
        size += len(piece)
        if size >= _PIECE:
            dest.write("".join(held))
            held, size = [], 0
    if held:
        dest.write("".join(held))


def write_instance(inst: LPInstance, dest) -> None:
    """Serialize to a path or a writable text file object, 64 KiB of text
    or more per ``write``."""
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


# the reader takes its source about this many characters or bytes at a time
_BATCH = 1 << 16

# every character at which str.splitlines breaks a line
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def read_instance(source) -> LPInstance:
    """Parse a path or readable text file object back into an instance.

    The text is taken some at a time, a path's in the encoding
    ``Path.read_text`` uses; only a text file object that has decoded text
    ahead of its caller is read whole.  The stored format does not carry every
    generation knob; alpha and theta are recovered from the first bounding
    row and the last objective coefficient, the remaining parameters stay at
    their defaults.
    """
    if not hasattr(source, "read"):
        with Path(source).open() as f:
            return _read(_decoded(f))
    if isinstance(source, io.TextIOWrapper) and _unread(source):
        return _read(_decoded(source))
    return _read(_pieces(source))


def _not_text(err: UnicodeDecodeError, offset: int) -> ParseError:
    return ParseError(f"byte {offset}: not {err.encoding} text")


def _unread(f: io.TextIOWrapper) -> bool:
    """Whether f holds no text it has decoded ahead of its caller:
    ``reconfigure`` refuses a stream's encoding once it has read."""
    try:
        f.reconfigure(encoding=f.encoding, errors=f.errors)
    except io.UnsupportedOperation:
        return False
    return True


def _decoded(f: io.TextIOWrapper):
    """The text of f, which holds none decoded, decoded from its binary
    buffer some at a time as f decodes, so that a byte that does not decode
    is named by its offset from where f stood, a pipe's too.  f's newline
    translation is left out: it only turns one break of ``str.splitlines``
    into another."""
    decoder = codecs.getincrementaldecoder(f.encoding)(f.errors)
    end = 0  # the bytes read
    while True:
        raw = f.buffer.read(_BATCH)
        end += len(raw)
        try:
            text = decoder.decode(raw, final=not raw)
        except UnicodeDecodeError as err:
            # err.object is the bytes the decoder held, then raw
            raise _not_text(err, end - len(err.object) + err.start) from None
        yield text
        if not raw:
            return


def _pieces(f):
    """The text of any other file object f, some at a time.  A TextIOWrapper
    that holds text it has decoded ahead of its caller is read whole, so
    that a byte that does not decode is named by its offset from where its
    read began; an object that decodes a piece at a time (a ``codecs``
    reader) names it from the start of that piece."""
    size = -1 if isinstance(f, io.TextIOWrapper) else _BATCH
    try:
        while piece := f.read(size):
            yield piece
    except UnicodeDecodeError as err:
        raise _not_text(err, err.start) from None


def _split(pieces):
    """Lists of the lines of the text whose pieces ``pieces`` gives; chained,
    they are ``str.splitlines`` of the whole text."""
    held = ""  # the end of the text, which the next piece may go on
    for piece in pieces:
        text = held + piece
        if any(map(text.__contains__, _BREAKS[1:])):
            lines = text.splitlines()
            held, last = "", text[-1]
            if last == "\r" or last not in _BREAKS:
                # the last line may go on, or a "\n" end its "\r"
                held = lines.pop() + last * (last == "\r")
        else:
            # "\n" is the only break: splitting at it is a search, faster
            # than splitlines' test of each character; the last part may go on
            lines = text.split("\n")
            held = lines.pop()
        yield lines
    yield held.splitlines()


def _without_trailing_blanks(lists):
    """The lists of lines ``lists`` gives, without the whitespace-only lines
    that end the last of them."""
    blank = []
    for lines in lists:
        k = len(lines)
        while k and not lines[k - 1].strip():
            k -= 1
        if k:
            yield blank + lines[:k]
            blank = lines[k:]
        else:
            blank += lines


def _header(line: str):
    """(n, m, d, seed) from the header line."""
    head = line.split()
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
    return n, m, d, seed


def _read(pieces) -> LPInstance:
    lines = chain.from_iterable(_without_trailing_blanks(_split(pieces)))
    head = next(lines, None)
    if head is None:
        raise ParseError("empty input")
    try:
        n, m, d, seed = _header(head)
    except ParseError:
        for _ in lines:  # a byte that does not decode is reported first
            pass
        raise

    # Line 2, the first bounding row, carries alpha, which sets the text
    # expected of every bounding row.  A bounding line that differs from
    # that text, even by spelling a number another way, and the diagonal's
    # line when its right-hand side overflows, are kept to be parsed with
    # the random lines; ``BoundingBlock.from_rows`` keeps such a row in
    # closed form when it is bitwise the canonical one.  After a bad line 2
    # the lines are only counted, since the line count is reported first.
    first, expected = 2 * n + 1, m + 2
    kept, kept_nos = [], []
    error = None
    count = 1  # the last line number read
    for count, line in enumerate(islice(lines, first), 2):
        if count == 2:
            try:
                alpha = _floats(line, 2, n + 1)[n]
            except ParseError as err:
                error = err
                break
            canonical = BoundingBlock.canonical(n, alpha)
        j, coef, rhs = canonical.spec(count - 2)
        if not math.isfinite(rhs) or line != _template(n, j, coef, rhs, len(line)):
            kept.append(line)
            kept_nos.append(count)
    if error is None:
        random = list(islice(lines, d))
        kept += random
        kept_nos += range(count + 1, count + 1 + len(random))
        count += len(random)
        objective = next(lines, None)
        count += objective is not None
    count += sum(1 for _ in lines)
    if count != expected:
        raise ParseError(
            f"expected {expected} lines (header, {m} constraint rows, "
            f"objective), found {count}"
        )
    if error is not None:
        raise error

    block = _parse_block(kept, kept_nos, n)
    k = len(kept) - d
    rows = [None] * first
    for no, row in zip(kept_nos[:k], block[:k]):
        rows[no - 2] = Inequality(row[:n], row[n])
    c = np.array(_floats(objective, expected, n))

    params = GeneratorParams(n=n, d=d, seed=seed, alpha=alpha, theta=float(c[-1]))
    return LPInstance(
        n, BoundingBlock.from_rows(n, alpha, rows), block[k:, :n], block[k:, n], c, params
    )


def stats_to_text(stats: GenerationStats) -> str:
    """One ``name = value`` line per field of ``stats``, in field order; a
    float field with three decimals."""
    lines = []
    for f in dataclasses.fields(stats):
        spec = ".3f" if f.type == "float" else ""
        lines.append(f"{f.name} = {getattr(stats, f.name):{spec}}\n")
    return "".join(lines)


def write_stats(stats: GenerationStats, dest) -> None:
    _write_text([stats_to_text(stats)], dest)
