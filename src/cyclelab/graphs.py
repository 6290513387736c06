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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def color_token(color: int) -> str:
    """Render a color as the text-format token ``b`` or ``r<i>``."""
    return "b" if color == BLUE else f"r{color}"


def parse_color_token(tok: str) -> int:
    if tok == "b":
        return BLUE
    if tok.startswith("r") and tok[1:].isdigit() and int(tok[1:]) >= 1:
        return int(tok[1:])
    raise ValueError(f"bad color token {tok!r}")


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


def auto_params(n_blue: int, outdeg: int = 2) -> BRParams:
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
        arr.setflags(write=False)

    def color(self, v: int) -> int:
        return int(self.layer_by_vertex[v])

    def is_blue(self, v: int) -> bool:
        return self.layer_by_vertex[v] == BLUE

    def blue_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.layer_by_vertex == BLUE)

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

    Stored CSR-style so large instances stay compact.  Lists may contain
    repeats for brsimple graphs (parallel matchings can reuse an edge);
    BR graphs always have distinct entries, which validate_br checks.
    """

    __slots__ = ("_offsets", "_targets", "v_count")

    def __init__(self, offsets: np.ndarray, targets: np.ndarray):
        self.v_count = len(offsets) - 1
        self._offsets = offsets
        self._targets = targets
        offsets.setflags(write=False)
        targets.setflags(write=False)

    @classmethod
    def from_lists(cls, lists: list) -> "Digraph":
        offsets = np.zeros(len(lists) + 1, dtype=np.int64)
        for i, row in enumerate(lists):
            offsets[i + 1] = offsets[i] + len(row)
        targets = np.empty(offsets[-1], dtype=np.int64)
        for i, row in enumerate(lists):
            targets[offsets[i]:offsets[i + 1]] = row
        return cls(offsets, targets)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, has_out: np.ndarray) -> "Digraph":
        v, d = matrix.shape
        lens = np.where(has_out, d, 0)
        offsets = np.zeros(v + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        targets = matrix[has_out].ravel().astype(np.int64)
        return cls(offsets, targets)

    def out_list(self, u: int) -> tuple:
        return tuple(self._targets[self._offsets[u]:self._offsets[u + 1]].tolist())

    def out_degree(self, u: int) -> int:
        return int(self._offsets[u + 1] - self._offsets[u])

    def max_out_degree(self) -> int:
        if self.v_count == 0:
            return 0
        return int(np.max(np.diff(self._offsets)))

    def edge_count(self) -> int:
        return len(self._targets)

    def edges(self):
        """Yield (u, v) pairs in adjacency order."""
        for u in range(self.v_count):
            for j in range(self._offsets[u], self._offsets[u + 1]):
                yield u, int(self._targets[j])

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


def _distinct_rows(rng: np.random.Generator, rows: int, high: int, d: int) -> np.ndarray:
    """rows x d matrix, each row d distinct uniform draws from range(high).

    Rows are ordered uniformly (iid draws conditioned on distinctness).
    Consumption order: one full matrix, then whole-row redraws for rows
    that contained repeats, repeated until clean.  Falls back to per-row
    permutations when d is a large fraction of the range, or when a row of
    iid draws is distinct with probability below 1e-3 (over a thousand
    expected redraws per row).
    """
    if d > high:
        raise InfeasibleSampling(f"cannot draw {d} distinct values from {high}")
    if rows == 0:
        return np.empty((0, d), dtype=np.int64)
    if d * 2 > high or math.prod(1 - k / high for k in range(d)) < 1e-3:
        out = np.empty((rows, d), dtype=np.int64)
        for i in range(rows):
            out[i] = rng.permutation(high)[:d]
        return out
    out = rng.integers(0, high, size=(rows, d), dtype=np.int64)
    while True:
        s = np.sort(out, axis=1)
        bad = np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))
        if bad.size == 0:
            return out
        out[bad] = rng.integers(0, high, size=(bad.size, d), dtype=np.int64)


def gen_br_graph(coloring: Coloring, rng: np.random.Generator) -> Digraph:
    """Draw the adjacency lists for a fixed coloring.

    Consumption order: blue rows in increasing vertex id, then red rows
    layer by layer (1..L-1), each layer in increasing vertex id.
    """
    p = coloring.params
    n, l, w, d = p.n_blue, p.layers, p.width, p.outdeg

    blue = coloring.blue_vertices()
    top_red = np.flatnonzero(
        (coloring.layer_by_vertex >= 1) & (coloring.layer_by_vertex <= l // 2)
    )
    pool = np.sort(np.concatenate([blue, top_red]))  # 2N vertices
    if len(pool) - 1 < d:
        raise InfeasibleSampling(f"blue pool {len(pool) - 1} smaller than outdeg {d}")

    matrix = np.zeros((p.v_count, d), dtype=np.int64)
    has_out = np.zeros(p.v_count, dtype=bool)

    # Blue rows: sample from the pool minus the vertex itself by drawing
    # indices into a (2N-1)-element range and skipping the vertex's slot.
    idx = _distinct_rows(rng, len(blue), len(pool) - 1, d)
    pos = np.searchsorted(pool, blue)
    idx = idx + (idx >= pos[:, None])
    matrix[blue] = pool[idx]
    has_out[blue] = True

    for i in range(1, l):
        src = coloring.layer_vertices(i)
        dst = np.sort(coloring.layer_vertices(i + 1))
        idx = _distinct_rows(rng, len(src), w, d)
        matrix[src] = dst[idx]
        has_out[src] = True

    return Digraph.from_matrix(matrix, has_out)


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
    matrix = np.empty((n, d), dtype=np.int64)
    for k in range(d):
        matrix[s1, k] = s2[rng.permutation(half)]
    for k in range(d):
        matrix[s2, k] = s1[rng.permutation(half)]
    return Digraph.from_matrix(matrix, np.ones(n, dtype=bool))


def validate_br(pair: BRPair) -> list[str]:
    """Structural check of a blue/red pair; returns violations as strings.

    Empty result means valid.  Checks class sizes, out-degrees, entry
    distinctness, self-loops, the sink rule (only bottom-layer vertices may
    have empty lists, and they all must), and the edge color rules.
    """
    p = pair.params
    colors = pair.coloring.layer_by_vertex
    g = pair.graph
    out: list[str] = []

    counts = np.bincount(colors, minlength=p.layers + 1)
    expected = [p.n_blue] + [p.width] * p.layers
    for c, (got, want) in enumerate(zip(counts, expected)):
        if got != want:
            out.append(f"class {color_token(c)}: {got} vertices, expected {want}")

    src, dst = g.edge_arrays()
    degs = np.bincount(src, minlength=g.v_count)
    bad_deg = np.flatnonzero((degs != 0) & (degs != p.outdeg))
    for v in bad_deg[:20]:
        out.append(f"vertex {v}: out-degree {degs[v]} not in {{0, {p.outdeg}}}")

    sinks = degs == 0
    for v in np.flatnonzero(sinks & (colors != p.layers))[:20]:
        out.append(f"vertex {v}: non-red_L sink ({color_token(int(colors[v]))})")
    for v in np.flatnonzero(~sinks & (colors == p.layers))[:20]:
        out.append(f"vertex {v}: red_{p.layers} vertex has out-edges")

    # Per-list distinctness and self-loops, vectorized over full-degree rows.
    full = np.flatnonzero(degs == p.outdeg)
    rows = dst[degs[src] == p.outdeg].reshape(-1, p.outdeg)
    s = np.sort(rows, axis=1)
    for r in np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))[:20]:
        out.append(f"vertex {full[r]}: repeated entry in adjacency list")
    for r in np.flatnonzero((rows == full[:, None]).any(axis=1))[:20]:
        out.append(f"vertex {full[r]}: self-loop")

    cu, cv = colors[src], colors[dst]
    ok = np.where(
        cu == BLUE,
        (cv == BLUE) | ((cv >= 1) & (cv <= p.layers // 2)),
        cv == cu + 1,
    )
    for j in np.flatnonzero(~ok)[:20]:
        out.append(
            f"edge {src[j]}->{dst[j]}: {color_token(int(cu[j]))} -> "
            f"{color_token(int(cv[j]))} not allowed"
        )
    return out
