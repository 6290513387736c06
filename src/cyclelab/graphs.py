"""Synthetic digraph families used throughout the experiments.

Two distributions are provided:

* ``br`` -- a layered blue/red construction over 3N vertices: N blue
  vertices, and 2N red vertices split into L layers of width W = 2N/L.
  Every blue vertex has d out-edges drawn without replacement from the
  other blue vertices plus the top half of the red layers (a pool of
  exactly 2N-1 vertices).  A red vertex in layer i < L points at d
  distinct vertices of layer i+1, and the bottom layer L is all sinks.
  The coloring is hidden from query algorithms; cycles can only live
  inside the blue part.

* ``brsimple`` -- an uncolored bipartite-style graph on n vertices: the
  vertex set is split in half and d independent random perfect matchings
  are laid down in each direction.  Every vertex has out-degree and
  in-degree exactly d, and the graph is far from acyclic.

Colors are encoded as small ints: 0 is blue, i in 1..L is red layer i.
The structural check of a generated pair against these rules lives with
the tests, in ``tests/br_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BLUE = 0


class NoValidLayering(ValueError):
    """No even layer count close to the target divides 2N."""


class InvalidParams(ValueError):
    """BRParams invariants violated."""


class InfeasibleSampling(ValueError):
    """Requested out-degree exceeds the available sample pool."""


class OddVertexCount(ValueError):
    """brsimple needs an even number of vertices."""


@dataclass(frozen=True)
class BRParams:
    """Shape of a layered blue/red instance.

    Invariants: layers * width == 2 * n_blue, layers is even, and
    2 <= outdeg <= min(width, 2 * n_blue - 1).
    """

    n_blue: int
    layers: int
    width: int
    outdeg: int

    def __post_init__(self) -> None:
        n, l, w, d = self.n_blue, self.layers, self.width, self.outdeg
        if n < 1:
            raise InvalidParams(f"n_blue must be positive, got {n}")
        if l < 2 or l % 2 != 0:
            raise InvalidParams(f"layers must be even and >= 2, got {l}")
        if l * w != 2 * n:
            raise InvalidParams(f"layers*width must equal 2*n_blue: {l}*{w} != {2 * n}")
        if d < 2:
            raise InvalidParams(f"outdeg must be >= 2, got {d}")
        if d > w:
            raise InvalidParams(f"outdeg {d} exceeds layer width {w}")
        if d > 2 * n - 1:
            raise InvalidParams(f"outdeg {d} exceeds blue pool size {2 * n - 1}")

    @property
    def v_count(self) -> int:
        return 3 * self.n_blue

    @property
    def epoch_cap(self) -> int:
        return self.layers // 2


def auto_params(n_blue: int, outdeg: int) -> BRParams:
    """Pick the canonical layering for a given blue count.

    The layer count L is the even divisor of 2N nearest to (2N)^(2/9),
    the smaller one on a tie, whose width 2N/L can accommodate the
    requested out-degree.  Divisors come in pairs (i, 2N/i) with
    i <= sqrt(2N), so only those i are tried.  Raises NoValidLayering
    when no candidate lies within a factor 4 of the target.
    """
    if n_blue < 1:
        raise InvalidParams(f"n_blue must be positive, got {n_blue}")
    two_n = 2 * n_blue
    target = two_n ** (2.0 / 9.0)
    best = None
    for i in range(1, math.isqrt(two_n) + 1):
        if two_n % i:
            continue
        for l in (i, two_n // i):
            if l % 2 or two_n // l < max(2, outdeg):
                continue
            key = (abs(l - target), l)
            if best is None or key < best:
                best = key
    if best is None or not (target / 4.0 <= best[1] <= target * 4.0):
        raise NoValidLayering(
            f"no even divisor of {two_n} within a factor 4 of {target:.3f}"
        )
    layers = best[1]
    return BRParams(n_blue=n_blue, layers=layers, width=two_n // layers, outdeg=outdeg)


@dataclass(frozen=True)
class Coloring:
    """Total map vertex -> color for a BR instance.

    ``layer_by_vertex[v]`` is 0 for blue and the layer index 1..L for red.
    Class sizes are exact: n_blue blues and width per layer.
    """

    params: BRParams
    layer_by_vertex: np.ndarray

    def __post_init__(self) -> None:
        arr = self.layer_by_vertex
        if arr.shape != (self.params.v_count,):
            raise InvalidParams("coloring length != vertex count")
        counts = np.bincount(arr, minlength=self.params.layers + 1)
        expected = [self.params.n_blue] + [self.params.width] * self.params.layers
        if list(counts) != expected:
            raise InvalidParams(f"class sizes {list(counts)} != {expected}")
        # a read-only view: the caller's own array stays writeable
        view = arr.view()
        view.setflags(write=False)
        object.__setattr__(self, "layer_by_vertex", view)

    def color(self, v: int) -> int:
        return int(self.layer_by_vertex[v])

    def is_blue(self, v: int) -> bool:
        return self.layer_by_vertex[v] == BLUE

    def layer_vertices(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.layer_by_vertex == i)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coloring)
            and self.params == other.params
            and np.array_equal(self.layer_by_vertex, other.layer_by_vertex)
        )


class Digraph:
    """Immutable digraph with per-vertex ordered adjacency lists.

    Stored CSR-style so large instances stay compact: vertex u's list is
    ``targets[offsets[u]:offsets[u + 1]]``.  Offsets are int64; the
    generators write int32 targets (vertex ids stay below 2^31), and
    ``from_lists`` int64 ones.  Both arrays are kept as read-only views,
    together with a ``memoryview`` of each, so ``out_list`` slices a
    memoryview and returns a tuple of Python ints without making a numpy
    scalar.  Lists may contain repeats for brsimple graphs (parallel
    matchings can reuse an edge); BR graphs always have distinct entries.
    """

    __slots__ = ("_offsets", "_targets", "_offset_view", "_target_view", "v_count")

    def __init__(self, offsets: np.ndarray, targets: np.ndarray):
        self.v_count = len(offsets) - 1
        # read-only views: the caller's own arrays stay writeable
        self._offsets = offsets.view()
        self._targets = targets.view()
        self._offsets.setflags(write=False)
        self._targets.setflags(write=False)
        self._offset_view = memoryview(self._offsets)
        self._target_view = memoryview(self._targets)

    def __reduce__(self):
        # memoryviews do not pickle: rebuild them from the arrays
        return Digraph, (self._offsets, self._targets)

    @classmethod
    def from_lists(cls, lists: list) -> "Digraph":
        offsets = np.zeros(len(lists) + 1, dtype=np.int64)
        for i, row in enumerate(lists):
            offsets[i + 1] = offsets[i] + len(row)
        targets = np.empty(offsets[-1], dtype=np.int64)
        for i, row in enumerate(lists):
            targets[offsets[i]:offsets[i + 1]] = row
        return cls(offsets, targets)

    def out_list(self, u: int) -> tuple:
        om = self._offset_view
        return tuple(self._target_view[om[u]:om[u + 1]])

    def rows(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The out-lists of many vertices at once: their lengths, and their
        entries concatenated in the order of ``vertices``, both int64.

        One gather over the CSR arrays.
        """
        starts = self._offsets[vertices]
        degrees = self._offsets[vertices + 1] - starts
        ends = np.cumsum(degrees)
        shift = np.repeat(starts - (ends - degrees), degrees)  # row start minus its output start
        return degrees, self._targets[np.arange(len(shift)) + shift].astype(np.int64)

    def max_out_degree(self) -> int:
        if self.v_count == 0:
            return 0
        return int(np.max(np.diff(self._offsets)))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized edge view: (sources, targets) arrays."""
        sources = np.repeat(np.arange(self.v_count), np.diff(self._offsets))
        return sources, self._targets

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self._targets[self._offsets[u]:self._offsets[u + 1]] == v))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._targets, other._targets)
        )


@dataclass(frozen=True)
class BRPair:
    """A hidden coloring together with a graph drawn from it."""

    params: BRParams
    coloring: Coloring
    graph: Digraph


def gen_coloring(params: BRParams, rng: np.random.Generator) -> Coloring:
    """Uniform coloring with exact class sizes.

    Consumes one permutation of the vertex set from ``rng``.
    """
    pebbles = np.repeat(
        np.arange(params.layers + 1, dtype=np.int16),
        [params.n_blue] + [params.width] * params.layers,
    )
    return Coloring(params, rng.permutation(pebbles))


# Row-chunk for the pairwise repeat check: d columns of this many int32
# values stay in cache while all of their pairs are compared.  gen_br_graph
# also draws its red layers in groups of about this many rows.
_CHUNK = 8192


def _repeated_rows(block: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of a (rows, d) block that repeat a value.

    Two checks give the same answer at different costs.  Sorting each row
    costs one sort call, about 0.1 us, per row.  Comparing every pair of
    columns costs d(d-1)/2 passes of about 2 us each, and its per-row cost
    grows as d^2, overtaking the sort near d = 14.  So columns are compared
    when d <= 12 and the rows outnumber the passes twentyfold, rows are
    sorted otherwise.
    """
    rows, d = block.shape
    if d > 12 or rows < 10 * d * (d - 1):
        s = np.sort(block, axis=1)
        return np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))
    repeated = np.zeros(rows, dtype=bool)
    for lo in range(0, rows, _CHUNK):
        cols = block[lo:lo + _CHUNK].T.copy()
        acc = repeated[lo:lo + _CHUNK]
        for j in range(1, d):
            for i in range(j):
                acc |= cols[i] == cols[j]
    return np.flatnonzero(repeated)


def _distinct_rows(
    rng: np.random.Generator, blocks: int, rows: int, high: int, d: int
) -> np.ndarray:
    """(blocks, rows, d) int32 array; block b is what the b-th of ``blocks``
    consecutive calls for one rows x d block would return: each row d
    distinct uniform draws from range(high).

    Rows are ordered uniformly (iid draws conditioned on distinctness).
    Consumption order, block by block: one full rows x d matrix, then
    whole-row redraws, in one call and ascending row order, for the rows
    that contained repeats, repeated until clean.  Falls back to per-row
    permutations when d is a large fraction of the range, or when a row of
    iid draws is distinct with probability below 1e-3 (over a thousand
    expected redraws per row).

    The iid draws all have one bound, and numpy's bounded draws of one bound
    read one stream of 32-bit words however calls split them, with int32
    values equal to int64 ones.  So every block's first matrix is drawn in
    one call and checked for repeats once; the blocks then read that stream
    in the order above, a redraw taking the rows after those already read.
    Rows past the first matrices are drawn only when a read reaches them,
    together with the later blocks' rows, which are certain to be read, so
    the generator ends where the separate calls would leave it.
    """
    if d > high:
        raise InfeasibleSampling(f"cannot draw {d} distinct values from {high}")
    if blocks * rows == 0:
        return np.empty((blocks, rows, d), dtype=np.int32)
    if d * 2 > high or math.prod(1 - k / high for k in range(d)) < 1e-3:
        out = np.empty((blocks, rows, d), dtype=np.int32)
        for row in out.reshape(-1, d):
            row[:] = rng.permutation(high)[:d]
        return out

    def repeats(m: np.ndarray) -> np.ndarray:
        mask = np.zeros(len(m), dtype=bool)
        mask[_repeated_rows(m)] = True
        return mask

    out = rng.integers(0, high, size=(blocks, rows, d), dtype=np.int32)
    # the stream of rows still to be read: stream[at:], then undrawn ones
    stream = out.reshape(-1, d)
    repeated = repeats(stream)
    at = 0

    def read(k: int, later: int) -> tuple[np.ndarray, np.ndarray]:
        """The next k rows and their repeat mask; ``later`` more rows are
        certain to be read after them."""
        nonlocal stream, repeated, at
        if at + k > len(stream):
            fresh = rng.integers(0, high, size=(at + k + later - len(stream), d), dtype=np.int32)
            stream = np.concatenate((stream[at:], fresh))
            repeated = np.concatenate((repeated[at:], repeats(fresh)))
            at = 0
        at += k
        return stream[at - k:at], repeated[at - k:at]

    for b in range(blocks):
        later = (blocks - 1 - b) * rows  # the later blocks' first matrices
        first, redo = read(rows, later)
        if b:  # block 0's rows are read where they were drawn
            out[b] = first
        bad = np.flatnonzero(redo)
        while bad.size:
            # rows outside bad are clean and stay so: only the redrawn ones are checked
            fill, redo = read(bad.size, later)
            out[b, bad] = fill
            bad = bad[redo]
    return out


def _as_items(matrix: np.ndarray) -> np.ndarray:
    """A C-contiguous matrix viewed as one opaque item a row, so that a
    scattered write moves each row in one copy."""
    return matrix.view(np.dtype((np.void, matrix.itemsize * matrix.shape[1]))).reshape(-1)


def gen_br_graph(coloring: Coloring, rng: np.random.Generator) -> Digraph:
    """Draw the adjacency lists for a fixed coloring.

    Consumption order: blue rows in increasing vertex id, then red rows
    layer by layer (1..L-1), each layer in increasing vertex id.  Rows are
    drawn as int32 index matrices (``_distinct_rows``): the blue ones in
    one call, the red layers in groups of consecutive layers of about
    ``_CHUNK`` rows a call, one block a layer.  They are written, mapped to
    vertex ids, straight into one int32 block that holds the non-sink rows
    in vertex order.
    """
    p = coloring.params
    n, l, w, d = p.n_blue, p.layers, p.width, p.outdeg
    layer = coloring.layer_by_vertex

    # blue, then layers 1..L, each in increasing vertex id
    by_class = np.argsort(layer, kind="stable").astype(np.int32)
    pool = np.flatnonzero(layer <= l // 2).astype(np.int32)  # 2N vertices
    if len(pool) - 1 < d:
        raise InfeasibleSampling(f"blue pool {len(pool) - 1} smaller than outdeg {d}")

    # every vertex but the bottom layer's sinks has d entries: rank counts
    # the non-sinks up to and including each vertex, and once shifted down
    # by one it gives each non-sink's row in the block
    rank = np.cumsum(layer != l)
    offsets = np.zeros(p.v_count + 1, dtype=np.int64)
    np.multiply(rank, d, out=offsets[1:])
    block = np.empty((int(rank[-1]), d), dtype=np.int32)
    block_rows = _as_items(block)
    rank -= 1

    # Blue rows: sample from the pool minus the vertex itself by drawing
    # indices into a (2N-1)-element range and skipping the vertex's slot.
    blue = by_class[:n]
    idx = _distinct_rows(rng, 1, n, len(pool) - 1, d)[0]
    idx += idx >= np.flatnonzero(layer[pool] == BLUE)[:, None]  # each blue vertex's slot
    block_rows[rank[blue]] = _as_items(pool[idx])

    # Red layers lo..hi-1 at a time: layer i's rows index layer i + 1, which
    # by_class lists from n + i * w on
    group = max(1, _CHUNK // w)
    for lo in range(1, l, group):
        hi = min(lo + group, l)
        idx = _distinct_rows(rng, hi - lo, w, w, d)
        idx += (n + w * np.arange(lo, hi, dtype=np.int32))[:, None, None]
        src = by_class[n + (lo - 1) * w:n + (hi - 1) * w]
        block_rows[rank[src]] = _as_items(by_class[idx].reshape(-1, d))

    return Digraph(offsets, block.reshape(-1))


def gen_br_pair(params: BRParams, rng: np.random.Generator) -> BRPair:
    """Coloring first, then the graph, off a single generator."""
    coloring = gen_coloring(params, rng)
    return BRPair(params, coloring, gen_br_graph(coloring, rng))


def gen_br_simple(n: int, d: int, rng: np.random.Generator) -> Digraph:
    """Uncolored hard instance: d random matchings each way across a split.

    Consumption order: one permutation for the half/half split, then the d
    forward matchings, then the d backward matchings.  Adjacency entries
    keep one slot per matching, so repeats across matchings are kept.
    """
    if n % 2 != 0:
        raise OddVertexCount(f"vertex count must be even, got {n}")
    if n < 2 or d < 1:
        raise InvalidParams(f"need n >= 2 and d >= 1, got n={n} d={d}")
    half = n // 2
    perm = rng.permutation(n)
    s1, s2 = perm[:half], perm[half:]
    # every list is full: the block's rows are the lists, in vertex order
    block = np.empty((n, d), dtype=np.int32)
    for k in range(d):
        block[s1, k] = s2[rng.permutation(half)]
    for k in range(d):
        block[s2, k] = s1[rng.permutation(half)]
    return Digraph(np.arange(n + 1, dtype=np.int64) * d, block.reshape(-1))
