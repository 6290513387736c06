"""Property tests: single-pass epoch_stats against the per-epoch rebuild.

Also checks that epoch_stats reads a finished run's oracle (what the
harness passes: record arrays gathered from the hidden graph's rows) and
its answer map (``oracle.kg.items()``) exactly as it reads the
oracle's history.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclelab import (
    BRParams,
    Coloring,
    Digraph,
    EpochReason,
    EpochStats,
    QueryModel,
    QueryRecord,
    ancestor_count,
    decompose_epochs,
    epoch_stats,
    gen_br_pair,
    gen_br_simple,
    gen_coloring,
    max_blue_path,
    new_oracle,
)
from cyclelab import analysis
from cyclelab.analysis import _seen_set


def reference_stats(history, coloring, cap) -> EpochStats:
    """One knowledge graph per epoch, one ancestor BFS per blue vertex."""
    dec = decompose_epochs(history, cap)
    surprises = [r is EpochReason.SURPRISE for r in dec.end_reasons]
    blue_surprises = sum(
        s and coloring.is_blue(seg[-1].vertex) for seg, s in zip(dec.closed_epochs, surprises)
    )
    segments = list(dec.closed_epochs)
    if len(dec.current_epoch):
        segments.append(dec.current_epoch)
    per_epoch = tuple(max_blue_path(dict(seg), coloring) for seg in segments)
    kg = dict(history)
    max_anc = max((ancestor_count(kg, v) for v in _seen_set(kg) if coloring.is_blue(v)), default=0)
    return EpochStats(len(segments), sum(surprises), blue_surprises, per_epoch, max_anc)


def walk(oracle, v_count: int, steps: list[int]) -> tuple[QueryRecord, ...]:
    """Follow answer entries, jumping to a fresh start on a sink or every 8th draw.

    Walks come back to vertices they have seen, so the history has
    surprises and, on non-layered graphs, cycles through red vertices.
    """
    cur = steps[0] % v_count if steps else 0
    for s in steps:
        answer = oracle.query_vertex(cur)
        cur = answer[s % len(answer)] if answer and s % 8 else s % v_count
    return oracle.history


small_params = st.builds(
    lambda layers, width, d: BRParams(layers * width // 2, layers, width, min(d, width)),
    st.sampled_from([2, 4, 6, 8]),
    st.integers(2, 8),
    st.integers(2, 4),
)
steps = st.lists(st.integers(0, 2**16), max_size=80)


@given(small_params, st.integers(0, 2**32 - 1), steps, st.integers(1, 6))
def test_layered_walks_match_reference(params, seed, walk_steps, cap):
    pair = gen_br_pair(params, np.random.default_rng(seed))
    oracle = new_oracle(pair, QueryModel.VERTEX)
    history = walk(oracle, params.v_count, walk_steps)
    assert epoch_stats(history, pair.coloring, cap) == reference_stats(history, pair.coloring, cap)


@given(
    small_params,
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    steps,
    st.integers(1, 6),
)
def test_nonlayered_walks_match_reference(params, d, seed, walk_steps, cap):
    # 2N vertices in d random matchings each way, colored as a 3N-vertex
    # layered instance: red -> blue edges and dense SCCs both occur.
    rng = np.random.default_rng(seed)
    graph = gen_br_simple(2 * params.n_blue, d, rng)
    coloring = gen_coloring(params, rng)
    history = walk(new_oracle(graph, QueryModel.VERTEX), graph.v_count, walk_steps)
    assert epoch_stats(history, coloring, cap) == reference_stats(history, coloring, cap)


@st.composite
def walked_oracles(draw):
    """An oracle after a walk, and a coloring that covers its graph's vertices.

    The graph is a layered instance, a brsimple one on few vertices with
    up to four matchings each way (so rows repeat entries), or hand-drawn
    lists with sinks, self-loops and repeats (from_lists: int64 targets),
    colored at random.
    Drawn lists may give every blue vertex a self-loop, so that every
    epoch that queries one takes the back-edge fallback.
    """
    params = draw(small_params)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["br", "brsimple", "lists"]))
    if kind == "br":
        pair = gen_br_pair(params, rng)
        oracle, coloring = new_oracle(pair, QueryModel.VERTEX), pair.coloring
    else:
        coloring = gen_coloring(params, rng)
        if kind == "brsimple":
            graph = gen_br_simple(2 * params.n_blue, draw(st.integers(1, 4)), rng)
        else:
            vertex = st.integers(0, params.v_count - 1)
            rows = draw(st.lists(st.lists(vertex, max_size=4), min_size=params.v_count,
                                 max_size=params.v_count))
            if draw(st.booleans()):
                rows = [row + [u] if coloring.is_blue(u) else row for u, row in enumerate(rows)]
            graph = Digraph.from_lists(rows)
        oracle = new_oracle(graph, QueryModel.VERTEX)
    walk(oracle, oracle.v_count, draw(steps))
    return oracle, coloring


@given(walked_oracles(), st.integers(1, 6))
def test_oracle_reads_like_its_history(run, cap):
    oracle, coloring = run
    history = oracle.history
    got = epoch_stats(oracle, coloring, cap)
    assert got == epoch_stats(history, coloring, cap)
    assert got == reference_stats(history, coloring, cap)


def test_adjacency_list_oracle_is_refused():
    # its answers are single entries, so the graph's rows are not its transcript
    oracle = new_oracle(gen_br_simple(8, 2, np.random.default_rng(0)), QueryModel.ADJ_LIST)
    oracle.query_adj(0, 1)
    with pytest.raises(ValueError, match="adjacency-list"):
        epoch_stats(oracle, tiny_coloring(), 2)


@pytest.mark.parametrize("seed", range(8))
def test_answer_map_reads_like_the_history(seed):
    rng = np.random.default_rng(seed)
    params = BRParams(32, 4, 16, 3)
    walk_steps = rng.integers(0, 2**16, size=120).tolist()
    pair = gen_br_pair(params, rng)
    graph = gen_br_simple(2 * params.n_blue, 2, rng)
    for instance, coloring, v_count in (
        (pair, pair.coloring, params.v_count),
        (graph, gen_coloring(params, rng), graph.v_count),
    ):
        oracle = new_oracle(instance, QueryModel.VERTEX)
        walk(oracle, v_count, walk_steps)
        for cap in (1, 3, 6):
            got = epoch_stats(oracle.kg.items(), coloring, cap)
            assert got == epoch_stats(oracle.history, coloring, cap)
            assert got == epoch_stats(oracle, coloring, cap)


def test_answer_map_reads_like_the_history_on_the_fallback(monkeypatch):
    # the blue cycle 0 -> 1 -> 2 -> 0 closes on a blue edge back into its
    # epoch, so that epoch's path goes to max_blue_path on a slice of pairs
    calls = []

    def counted(kg, coloring):
        calls.append(kg)
        return max_blue_path(kg, coloring)

    monkeypatch.setattr(analysis, "max_blue_path", counted)
    rows = [[1], [2], [0]] + [[4]] * 9
    oracle = new_oracle(Digraph.from_lists(rows), QueryModel.VERTEX)
    for v in (0, 1, 2):
        oracle.query_vertex(v)
    coloring = tiny_coloring()
    got = epoch_stats(oracle.kg.items(), coloring, 3)
    assert len(calls) == 1
    assert got == epoch_stats(oracle.history, coloring, 3) == EpochStats(1, 1, 1, (3,), 2)
    # the oracle's fallback reads its epoch's pairs from kg by vertex
    assert epoch_stats(oracle, coloring, 3) == got
    assert len(calls) == 3
    assert type(calls[2]) is type(calls[0]) is dict
    assert calls[2] == calls[0] == oracle.kg


def tiny_coloring() -> Coloring:
    # BRParams(4, 4, 2, 2): vertices 0-3 blue, then layers 1-4 of width 2.
    return Coloring(BRParams(4, 4, 2, 2), np.array([0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4]))


def test_isolated_cycle_with_unit_indegrees():
    # 0 -> 1 -> 2 -> 0, all blue: one SCC with no parent SCC.
    history = (QueryRecord(0, (1,)), QueryRecord(1, (2,)), QueryRecord(2, (0,)))
    coloring = tiny_coloring()
    # the closing query 2 -> 0 is a blue surprise, and the epoch's blue
    # part is cyclic, so its path entry is its blue vertex count
    assert epoch_stats(history, coloring, 3) == EpochStats(1, 1, 1, (3,), 2)
    assert epoch_stats(history, coloring, 3) == reference_stats(history, coloring, 3)


def test_empty_history():
    coloring = tiny_coloring()
    assert epoch_stats((), coloring, 2) == EpochStats(0, 0, 0, (), 0)
