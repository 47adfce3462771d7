"""Deterministic random streams.

Each stream is a PCG64 generator keyed by (seed, stream_id) through numpy's
SeedSequence spawn mechanism, so distinct ids yield statistically independent
streams and the same pair always yields the same stream, across platforms.

A stream hands out raw 64-bit words only (``RngStream.raw_words``); a draw
is the word functions applied to them, one word per sign and one per unit:

    sign  = 1.0 - 2.0 * (word & 1)             words_to_signs
    unit  = (word >> 11) / (2**53 - 1)         words_to_units, on [0, 1]
    value = sign * (r * unit)                  on [-r, r]

``r * unit`` lies on [0, r] without a clip: rounding is monotone and
``r * 1.0`` is r.  The sign then flips it exactly, to -0.0 for unit 0.

Fixed word-per-draw accounting is what lets callers draw candidates in large
blocks while remaining bit-identical to one-at-a-time drawing.
"""
from __future__ import annotations

import numpy as np

_MAX53 = float((1 << 53) - 1)
_FULL = 1 << 64


def words_to_signs(words: np.ndarray) -> np.ndarray:
    """Map raw words to +1.0/-1.0 via their low bit."""
    return 1.0 - 2.0 * (words & np.uint64(1))


def words_to_units(words: np.ndarray) -> np.ndarray:
    """Map raw words to floats covering [0, 1] on a 2**53-point grid."""
    return (words >> np.uint64(11)) / _MAX53


class RngStream:
    """One deterministic substream. Construct via derive_stream."""

    def __init__(self, seed: int, stream_id: int):
        if not 0 <= seed < _FULL:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if stream_id < 0:
            raise ValueError("stream_id must be non-negative")
        self.seed = seed
        self.stream_id = stream_id
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
        self._bits = np.random.PCG64(ss)

    def raw_words(self, count: int) -> np.ndarray:
        """The next count raw 64-bit words. Primitive every draw builds on.

        The BitGenerator's raw stream, which NEP 19 keeps stable across
        numpy versions, unlike the streams of ``Generator`` methods."""
        return self._bits.random_raw(count)


def derive_stream(seed: int, stream_id: int) -> RngStream:
    """Stream for (seed, stream_id); same pair, same draws, forever."""
    return RngStream(seed, stream_id)
