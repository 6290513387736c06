"""Buffered bounded draws that reproduce ``int(rng.integers(k))`` exactly.

Every finder draw is a uniform integer below some k < 2**32.  On a numpy
``Generator`` over ``PCG64`` a scalar ``rng.integers(k)`` takes one 32-bit
half of a 64-bit output (low half first; the high half waits in the bit
generator's ``uinteger`` with ``has_uint32`` set) and applies Lemire's
bounded rejection to it.  ``DrawSource`` does the same arithmetic in Python
ints over blocks of raw 64-bit outputs, so a draw costs one method call
instead of a trip through numpy's argument handling, and returns the same
value draw for draw.

A walk draws many times in a row below one bound, the length of the
answer it stands on.  ``stream(k)`` serves such draws: numpy screens each
block's halves for k once (Lemire's product, the acceptance test, the
accepted values as a list), and each draw is the ``__next__`` of an
``itertools.chain`` over those lists, one C call.  The source keeps where
the accepted halves sit, so ``below``, ``sync`` and ``_put_back`` first
settle an open stream: the halves iterator moves just past the last half
the stream used, as if every value had come from ``below(k)``.  A stream
stays open until some other draw settles it.  Draws whose bound changes
from one to the next, as the birthday sampler's do, keep ``below``: a
fresh screen per change would cost more than it saves.

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

from functools import partial
from itertools import chain
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

    def stream(self, k: int):
        """A zero-argument callable whose successive values are successive ``below(k)``."""
        return partial(self.below, k)

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
    after a sync, so numpy's own result or error comes back.  ``stream(k)``
    serves the same values as repeated ``below(k)``, a block at a time.
    Call ``sync()`` before anything else reads or draws from the generator,
    and before the source is dropped.
    """

    __slots__ = ("_bitgen", "_entry", "_block", "_halves", "_iter", "_next", "_base",
                 "_open", "_take", "_from", "_at", "_values")

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
        self._block = np.array(self._halves, dtype=np.uint32)
        self._iter = iter(self._halves)
        self._next = self._iter.__next__
        self._open = 0  # the bound of the open stream; 0 when none is open
        self._take = None

    def _fill(self) -> None:
        """Move on to the next block of halves, low half of each word first."""
        self._base += len(self._block)
        raw = self._bitgen.random_raw(BLOCK)
        # as little-endian 32-bit pairs every word reads low half first
        self._block = raw.astype("<u8", copy=False).view("<u4")

    def _refill(self) -> int:
        """Split the next block into halves; return the first."""
        self._fill()
        self._halves = self._block.tolist()
        self._iter = iter(self._halves)
        self._next = self._iter.__next__
        return self._next()

    def below(self, k: int) -> int:
        if self._open:
            self._settle()
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

    def stream(self, k: int):
        """Successive ``below(k)`` values, one C call each.

        Each block of halves is screened for k once, in numpy, and its
        accepted values are served from a list; the source keeps where in
        the block they sit.  The stream stays open, and ``stream(k)``
        returns the same callable, until another draw or a sync settles it;
        a callable kept past that point would serve stale values.
        """
        if k == self._open:
            return self._take
        if k < 2 or k > 0x100000000:
            return partial(self.below, k)
        if self._open:
            self._settle()
        self._open = k
        # the stream starts at the next unused half and has used none yet
        self._from = len(self._halves) - length_hint(self._iter)
        self._at, self._values = (), iter(())
        self._take = chain.from_iterable(self._screened(k)).__next__
        return self._take

    def _screened(self, k: int):
        """Per block, an iterator over the values k accepts, from the stream's first half on."""
        threshold = (0x100000000 - k) % k
        block = self._block[self._from:]
        while True:
            m = block.astype(np.uint64) * k
            accept = m.astype(np.uint32) >= threshold
            self._at = np.flatnonzero(accept)
            self._values = iter((m[accept] >> 32).tolist())
            yield self._values
            # every later half of this block was rejected: the stream used it
            self._fill()
            self._halves = None  # split into a list only if a settle needs it
            self._from = 0
            block = self._block

    def _settle(self) -> None:
        """Close the open stream: the halves iterator goes just past the last half it used."""
        used = len(self._at) - length_hint(self._values)
        if self._halves is None:
            self._halves = self._block.tolist()
        self._iter = iter(self._halves)
        self._iter.__setstate__(self._from + int(self._at[used - 1]) + 1 if used else self._from)
        self._next = self._iter.__next__
        self._open = 0
        self._take = None

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
        if self._open:
            self._settle()
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
