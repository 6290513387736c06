"""Buffered bounded draws that reproduce ``int(rng.integers(k))`` exactly.

Every finder draw is a uniform integer below some k < 2**32.  On a numpy
``Generator`` over ``PCG64`` a scalar ``rng.integers(k)`` takes one 32-bit
half of a 64-bit output (low half first; the high half waits in the bit
generator's ``uinteger`` with ``has_uint32`` set) and applies Lemire's
bounded rejection to it.  ``DrawSource`` does the same arithmetic in Python
ints over blocks of raw 64-bit outputs, so a draw costs one method call
instead of a trip through numpy's argument handling, and returns the same
value draw for draw.

While a source runs, its generator sits up to a block ahead.  ``sync()``
puts it back exactly where the scalar draws would have left it, down to
the buffered half (numpy keeps a stale ``uinteger`` when ``has_uint32`` is
0, and so does ``sync``); the source then carries on from there.  A source
that draws no more is put back with ``_put_back()``, which is ``sync()``
without the snapshot the source would need to carry on.  Any other
generator gets a ``ScalarDraws``, which calls ``rng.integers`` once a
draw.  ``draw_source`` picks between them.
"""

from __future__ import annotations

from operator import length_hint

import numpy as np

# 64-bit words pulled from the bit generator at a time.  Not an option: the
# values drawn do not depend on it.  Larger blocks refill less often, but a
# finder that stops early has split more words it never used.
BLOCK = 256


class ScalarDraws:
    """``int(rng.integers(k))`` one call a draw: the path for any generator but PCG64."""

    __slots__ = ("rng",)

    def __init__(self, rng) -> None:
        self.rng = rng

    def below(self, k: int) -> int:
        """A uniform int in 0..k-1, exactly as ``int(rng.integers(k))``."""
        return int(self.rng.integers(k))

    def sync(self) -> None:
        """Nothing to put back: every draw went through the generator itself."""

    _put_back = sync


class DrawSource(ScalarDraws):
    """Buffered draws over a ``Generator(PCG64)``, equal to scalar ``integers``.

    ``below(k)`` returns what ``int(rng.integers(k))`` would at the same
    point of the stream: 0 without using bits for k == 1; otherwise
    Lemire's rejection on 32-bit halves, threshold ``(2**32 - k) % k`` and
    result ``m >> 32``.  k must be a Python int: a fixed-width numpy integer
    would wrap in that product.  A k outside 1..2**32 goes to numpy itself,
    after a sync, so numpy's own result or error comes back.  Call ``sync()``
    before anything else reads or draws from the generator, and before the
    source is dropped.
    """

    __slots__ = ("_bitgen", "_entry", "_halves", "_iter", "_next", "_base")

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng)
        self._bitgen = rng.bit_generator
        self._start()

    def _start(self) -> None:
        """Snapshot the generator; the stream opens with its buffered half, if any."""
        self._entry = state = self._bitgen.state
        # _base + (halves taken from _halves) = fresh halves taken since the
        # snapshot; the buffered half counts -1 so that it nets to 0
        if state["has_uint32"]:
            self._halves = [state["uinteger"]]
            self._base = -1
        else:
            self._halves = []
            self._base = 0
        self._iter = iter(self._halves)
        self._next = self._iter.__next__

    def _refill(self) -> int:
        """Split the next block into halves, low first; return the first."""
        self._base += len(self._halves)
        raw = self._bitgen.random_raw(BLOCK)
        # as little-endian 32-bit pairs every word reads low half first
        self._halves = raw.astype("<u8", copy=False).view("<u4").tolist()
        self._iter = iter(self._halves)
        self._next = self._iter.__next__
        return self._next()

    def below(self, k: int) -> int:
        if k < 2 or k > 0x100000000:
            return 0 if k == 1 else self._scalar(k)
        try:
            m = self._next() * k
        except StopIteration:
            m = self._refill() * k
        if (m & 0xFFFFFFFF) < k:
            threshold = (0x100000000 - k) % k
            while (m & 0xFFFFFFFF) < threshold:
                try:
                    m = self._next() * k
                except StopIteration:
                    m = self._refill() * k
        return m >> 32

    def _scalar(self, k: int) -> int:
        self._put_back()
        try:
            return int(self.rng.integers(k))
        finally:
            self._start()

    def sync(self) -> None:
        """Put the generator where scalar draws would have left it; keep drawing from there."""
        self._put_back()
        self._start()

    def _put_back(self) -> None:
        """``sync()`` without the new snapshot: for a source that draws no more.

        The generator goes to the snapshot advanced by every 64-bit word the
        draws started, with ``has_uint32`` set when the last word's high half
        is still unused and ``uinteger`` holding that high half either way.
        The source itself is left stale: only ``_start()`` makes it usable
        again.
        """
        fresh = self._base + len(self._halves) - length_hint(self._iter)
        bitgen = self._bitgen
        bitgen.state = self._entry
        if fresh > 0:
            bitgen.advance((fresh + 1) // 2 - 1)
            last_high = int(bitgen.random_raw()) >> 32
            state = bitgen.state
            state["has_uint32"] = fresh & 1
            state["uinteger"] = last_high
        else:
            # no fresh word: at most the buffered half went, uinteger stays
            state = dict(self._entry)
            state["has_uint32"] = int(fresh < 0)
        bitgen.state = state


def draw_source(rng) -> ScalarDraws:
    """The draw source for rng: itself if it is one, buffered on an exact PCG64 Generator."""
    if isinstance(rng, ScalarDraws):
        return rng
    if type(rng) is np.random.Generator and type(rng.bit_generator) is np.random.PCG64:
        return DrawSource(rng)
    return ScalarDraws(rng)
