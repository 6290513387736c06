"""Property tests: instance generation against the earlier matrix-based generator.

The ``reference_*`` functions are the generator as it was before rows were
written straight into one int32 block: a full (3N, d) int64 matrix filled
class by class, per-row sorts for the repeat check, and the CSR built from
the matrix.  The generator must give ``==`` instances, leave the generator
in the same state, and keep every adjacency entry a Python int.  An
instance rebuilt from its lists (int64 targets) must be ``==`` to it.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cyclelab import (
    BLUE,
    BRPair,
    BRParams,
    Digraph,
    InfeasibleSampling,
    gen_br_pair,
    gen_br_simple,
    gen_coloring,
    validate_br,
)
from cyclelab.graphs import _CHUNK, _distinct_rows, _repeated_rows


def reference_distinct_rows(rng, rows, high, d, reached=None):
    """The earlier row sampler; ``reached`` collects the names of the paths taken."""
    if d > high:
        raise InfeasibleSampling(f"cannot draw {d} distinct values from {high}")
    if rows == 0:
        return np.empty((0, d), dtype=np.int64)
    if d * 2 > high or math.prod(1 - k / high for k in range(d)) < 1e-3:
        if reached is not None:
            reached.add("wide" if d * 2 > high else "rare")
        out = np.empty((rows, d), dtype=np.int64)
        for i in range(rows):
            out[i] = rng.permutation(high)[:d]
        return out
    if reached is not None:
        reached.add("iid")
    out = rng.integers(0, high, size=(rows, d), dtype=np.int64)
    while True:
        s = np.sort(out, axis=1)
        bad = np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))
        if bad.size == 0:
            return out
        if reached is not None:
            reached.add("redraw")
        out[bad] = rng.integers(0, high, size=(bad.size, d), dtype=np.int64)


def reference_from_matrix(matrix, has_out):
    v, d = matrix.shape
    lens = np.where(has_out, d, 0)
    offsets = np.zeros(v + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    return Digraph(offsets, matrix[has_out].ravel().astype(np.int64))


def reference_gen_br_graph(coloring, rng, reached=None):
    p = coloring.params
    n, l, w, d = p.n_blue, p.layers, p.width, p.outdeg
    blue = np.flatnonzero(coloring.layer_by_vertex == BLUE)
    top_red = np.flatnonzero(
        (coloring.layer_by_vertex >= 1) & (coloring.layer_by_vertex <= l // 2)
    )
    pool = np.sort(np.concatenate([blue, top_red]))
    matrix = np.zeros((p.v_count, d), dtype=np.int64)
    has_out = np.zeros(p.v_count, dtype=bool)
    idx = reference_distinct_rows(rng, len(blue), len(pool) - 1, d, reached)
    pos = np.searchsorted(pool, blue)
    idx = idx + (idx >= pos[:, None])
    matrix[blue] = pool[idx]
    has_out[blue] = True
    for i in range(1, l):
        src = coloring.layer_vertices(i)
        dst = np.sort(coloring.layer_vertices(i + 1))
        idx = reference_distinct_rows(rng, len(src), w, d, reached)
        matrix[src] = dst[idx]
        has_out[src] = True
    return reference_from_matrix(matrix, has_out)


def reference_gen_br_pair(params, rng, reached=None):
    coloring = gen_coloring(params, rng)
    return BRPair(params, coloring, reference_gen_br_graph(coloring, rng, reached))


def reference_gen_br_simple(n, d, rng):
    half = n // 2
    perm = rng.permutation(n)
    s1, s2 = perm[:half], perm[half:]
    matrix = np.empty((n, d), dtype=np.int64)
    for k in range(d):
        matrix[s1, k] = s2[rng.permutation(half)]
    for k in range(d):
        matrix[s2, k] = s1[rng.permutation(half)]
    return reference_from_matrix(matrix, np.ones(n, dtype=bool))


def reference_repeated_rows(block):
    s = np.sort(block, axis=1)
    return np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))


# Shapes pinned as examples, so that every path of the row sampler runs
# whatever the drawn shapes are: iid rows with redraws, both in wide and in
# narrow layers; rows drawn by permutation because 2d > W (d = W included)
# or because iid rows would rarely be distinct; L = 2; more blue rows
# than one chunk of the pairwise repeat check; and 31 red layers of 512
# rows, which the generator draws in two groups of layers.
PINNED = [
    BRParams(2048, 32, 128, 3),
    BRParams(128, 32, 8, 5),
    BRParams(64, 2, 64, 63),
    BRParams(16, 8, 4, 4),
    BRParams(40, 2, 40, 40),
    BRParams(12288, 8, 3072, 8),
    BRParams(8192, 32, 512, 8),
]


@st.composite
def br_params(draw, max_width=48):
    layers = draw(st.sampled_from([2, 4, 6, 8, 16, 32]))
    width = draw(st.integers(2, max_width))
    n = layers * width // 2
    return BRParams(n, layers, width, draw(st.integers(2, min(width, 2 * n - 1))))


def assert_same_pair(got: BRPair, want: BRPair) -> None:
    assert got == want
    assert np.array_equal(got.graph._offsets, want.graph._offsets)
    assert np.array_equal(got.graph._targets, want.graph._targets)


def test_pinned_shapes_reach_every_sampler_path():
    reached = set()
    for params in PINNED:
        reference_gen_br_pair(params, np.random.default_rng(0), reached)
    assert reached == {"iid", "redraw", "wide", "rare"}
    assert any(p.layers == 2 for p in PINNED)
    assert any(p.outdeg == p.width for p in PINNED)
    # red layers drawn in groups of several layers, and in more than one group
    assert any(1 < _CHUNK // p.width < p.layers - 1 for p in PINNED)


@given(params=br_params(), seed=st.integers(0, 2**32 - 1))
@example(params=PINNED[0], seed=0)
@example(params=PINNED[1], seed=1)
@example(params=PINNED[2], seed=2)
@example(params=PINNED[3], seed=3)
@example(params=PINNED[4], seed=4)
@example(params=PINNED[5], seed=5)
@example(params=PINNED[6], seed=6)
def test_generation_equals_reference(params, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    pair = gen_br_pair(params, rng)
    assert_same_pair(pair, reference_gen_br_pair(params, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert validate_br(pair) == []
    for v in range(params.v_count):
        assert all(type(x) is int for x in pair.graph.out_list(v))


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(0, 300),
    high=st.integers(2, 400),
    d=st.integers(2, 40),
    prior=st.integers(0, 2),
)
def test_distinct_rows_equals_reference(seed, rows, high, d, prior):
    d = min(d, high)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for g in (rng, ref_rng):
        g.integers(7, size=prior)  # a buffered half, or none
    got = _distinct_rows(rng, 1, rows, high, d)[0]
    want = reference_distinct_rows(ref_rng, rows, high, d)
    assert got.dtype == np.int32 and np.array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# (blocks, rows, high, d, prior draws) pinned for the blocked draw:
# redraws in most blocks, so that the reads run past the first matrices,
# also within a block's first rows (the second and third cases); the wide
# and the rare fallbacks; no block or no row; and one prior draw, which
# leaves a buffered half-word for the first draw to use
BLOCKED = [
    (4, 40, 24, 5, 1),
    (3, 200, 60, 8, 0),
    (5, 7, 9, 4, 1),
    (3, 6, 10, 6, 2),
    (3, 4, 127, 63, 1),
    (0, 5, 30, 3, 0),
    (4, 0, 30, 3, 1),
]


def consecutive_calls(rng, blocks, rows, high, d, reached=None):
    return [reference_distinct_rows(rng, rows, high, d, reached) for _ in range(blocks)]


def assert_blocked_draw_equals_consecutive_calls(seed, blocks, rows, high, d, prior):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for g in (rng, ref_rng):
        g.integers(7, size=prior)
    got = _distinct_rows(rng, blocks, rows, high, d)
    want = consecutive_calls(ref_rng, blocks, rows, high, d)
    assert got.shape == (blocks, rows, d) and got.dtype == np.int32
    for b in range(blocks):
        assert np.array_equal(got[b], want[b])
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pinned_blocked_draws_reach_every_path():
    reached = set()
    for blocks, rows, high, d, _ in BLOCKED:
        consecutive_calls(np.random.default_rng(0), blocks, rows, high, d, reached)
    assert reached == {"iid", "redraw", "wide", "rare"}


@pytest.mark.parametrize("seed", range(len(BLOCKED)))
def test_pinned_blocked_draw_equals_consecutive_calls(seed):
    assert_blocked_draw_equals_consecutive_calls(seed, *BLOCKED[seed])


@given(
    seed=st.integers(0, 2**32 - 1),
    blocks=st.integers(0, 6),
    rows=st.integers(0, 60),
    high=st.integers(2, 200),
    d=st.integers(2, 24),
    prior=st.integers(0, 2),
)
def test_blocked_draw_equals_consecutive_calls(seed, blocks, rows, high, d, prior):
    assert_blocked_draw_equals_consecutive_calls(seed, blocks, rows, high, min(d, high), prior)


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.sampled_from([0, 1, 5, 100, 2000, 8192, 8193, 20000]),
    d=st.integers(2, 16),
    high=st.integers(2, 5000),
)
def test_repeated_rows_equals_per_row_sort(seed, rows, d, high):
    # both checks run: columns for d <= 12 once rows reach 10 d (d-1), rows
    # sorted otherwise, and more than one column chunk past 8192 rows
    block = np.random.default_rng(seed).integers(0, high, size=(rows, d))
    got = _repeated_rows(block)
    assert np.array_equal(got, reference_repeated_rows(block))


@given(half=st.integers(1, 300), d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_br_simple_equals_reference(half, d, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    g = gen_br_simple(2 * half, d, rng)
    want = reference_gen_br_simple(2 * half, d, ref_rng)
    assert g == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for u in range(g.v_count):
        assert all(type(x) is int for x in g.out_list(u))


def rebuilt(graph):
    """The same graph through Digraph.from_lists, which gives int64 targets."""
    return Digraph.from_lists([graph.out_list(u) for u in range(graph.v_count)])


@given(params=br_params(max_width=16), seed=st.integers(0, 2**32 - 1))
def test_pair_rebuilt_from_lists_equals_instance(params, seed):
    pair = gen_br_pair(params, np.random.default_rng(seed))
    back = BRPair(pair.params, pair.coloring, rebuilt(pair.graph))
    # int64 targets against the generator's int32 ones
    assert back.graph._targets.dtype != pair.graph._targets.dtype
    assert back == pair
    for v in range(params.v_count):
        row = back.graph.out_list(v)
        assert row == pair.graph.out_list(v)
        assert all(type(x) is int for x in row)


@given(half=st.integers(1, 100), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_plain_rebuilt_from_lists_equals_instance(half, d, seed):
    g = gen_br_simple(2 * half, d, np.random.default_rng(seed))
    back = rebuilt(g)
    assert back == g
    for u in range(g.v_count):
        row = back.out_list(u)
        assert row == g.out_list(u)
        assert all(type(x) is int for x in row)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_out_list_and_pickle_on_either_target_dtype(dtype):
    offsets = np.array([0, 2, 2, 3], dtype=np.int64)
    g = Digraph(offsets, np.array([2, 1, 0], dtype=dtype))
    assert [g.out_list(u) for u in range(3)] == [(2, 1), (), (0,)]
    assert all(type(x) is int for x in g.out_list(0))
    assert list(g.edges()) == [(0, 2), (0, 1), (2, 0)]
    back = pickle.loads(pickle.dumps(g))
    assert back == g and back.out_list(0) == (2, 1)
    assert back._targets.dtype == dtype and not back._targets.flags.writeable


def test_generators_write_int32_targets_and_int64_offsets():
    pair = gen_br_pair(BRParams(16, 4, 8, 3), np.random.default_rng(7))
    simple = gen_br_simple(10, 2, np.random.default_rng(7))
    for g in (pair.graph, simple):
        assert g._offsets.dtype == np.int64
        assert g._targets.dtype == np.int32
