"""Seed derivation for every random stream in the simulator.

All randomness flows from 64-bit unsigned master seeds. Sub-streams are seeded
by hashing the master seed together with a path of labels (SHA-256, first 8
bytes, big-endian), so any component can be re-seeded in isolation and the
scheme is stable across platforms and Python versions. Every stream is a numpy
PCG64 bit generator. Layout, field, cell and graph streams draw through a numpy
`Generator`; the per-tick agent and dream streams draw through a `Stream`,
which computes numpy's scalar `random` and `integers` itself, bit for bit.

A `Stream` reads the bit generator's raw 64-bit outputs from a buffer that
`random_raw(256)` fills when it runs dry. The bit generator's state is thus
ahead of the stream by the outputs still unread; before `normal`, the one draw
it hands to numpy, the stream rewinds the bit generator by that many steps
(`PCG64.advance(-left)`) and empties the buffer, so numpy reads the next
output of the stream, as it would without the buffer.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_LOW32 = 0xFFFFFFFF
_SPAN32 = 2**32
# raw outputs a `Stream` reads per refill
_BUFFER = 256


def derive_seed(master: int, *labels: object) -> int:
    """Hash (master, label path) down to a 64-bit unsigned sub-seed."""
    h = hashlib.sha256()
    h.update(str(int(master)).encode("ascii"))
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


class StoredSeed(ISeedSequence):
    """`SeedSequence(seed)` with the four words that seed a PCG64 computed once.

    `PCG64(StoredSeed(s))` is the bit generator `PCG64(s)` is, without hashing
    the seed again; any other request goes to the `SeedSequence`.
    """

    def __init__(self, seed: int) -> None:
        self._sequence = np.random.SeedSequence(seed)
        self._words = self._sequence.generate_state(4, np.uint64)
        self._words.flags.writeable = False

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self._words
        return self._sequence.generate_state(n_words, dtype)


class Stream:
    """A PCG64 stream whose scalar draws equal numpy `Generator`'s, bit for bit.

    `random()` is numpy's `next_double`. `integers(span)` is numpy's Lemire
    multiply-shift on 32-bit halves of the raw output: the low half is used
    first and the high half is kept for the next such draw, as the bit
    generator's own `has_uint32` buffer would keep it. `normal` goes to a
    `Generator` on the same bit generator, after `_rewind`; it reads no kept
    half, so the stream is the one `make_rng(seed)` gives. The kept half
    belongs to the stream and outlives a rewind.
    """

    __slots__ = ("_bitgen", "_buf", "_pos", "_half", "_gen")

    def __init__(self, seed: int | ISeedSequence) -> None:
        self._bitgen = np.random.PCG64(seed)
        self._buf: list[int] | tuple[()] = ()  # raw outputs; _buf[_pos:] are unread
        self._pos = 0
        self._half: int | None = None
        self._gen = np.random.Generator(self._bitgen)

    def _refill(self) -> list[int]:
        buf = self._buf = self._bitgen.random_raw(_BUFFER).tolist()
        return buf

    def _rewind(self) -> None:
        """Give the unread raw outputs back to the bit generator."""
        left = len(self._buf) - self._pos
        if left:
            self._bitgen.advance(-left)
        self._buf, self._pos = (), 0

    def random(self) -> float:
        """A double in [0, 1) from the top 53 bits of one raw output."""
        buf, pos = self._buf, self._pos
        if pos == len(buf):
            buf, pos = self._refill(), 0
        self._pos = pos + 1
        return (buf[pos] >> 11) * 2.0**-53

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        buf, pos = self._buf, self._pos
        if pos == len(buf):
            buf, pos = self._refill(), 0
        self._pos = pos + 1
        raw = buf[pos]
        self._half = raw >> 32
        return raw & _LOW32

    def integers(self, span: int) -> int:
        """A uniform int in [0, span), as numpy's `integers(span)` draws it;
        `low + integers(span)` is numpy's `integers(low, low + span)`."""
        if not 0 < span <= _SPAN32:
            # Lemire's rejection loop never ends past 2**32
            raise ValueError(f"span must be in [1, 2**32], got {span}")
        if span == 1:
            return 0
        m = self._next32() * span
        if (m & _LOW32) < span:
            threshold = (_SPAN32 - span) % span
            while (m & _LOW32) < threshold:
                m = self._next32() * span
        return m >> 32

    def normal(self, loc: float, scale: float, size) -> np.ndarray:
        """numpy's own `Generator.normal`, drawn from this stream."""
        self._rewind()
        return self._gen.normal(loc, scale, size)
