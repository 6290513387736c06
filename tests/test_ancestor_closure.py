"""The ancestor pass of epoch_stats against one ancestor BFS per blue vertex.

Drawn transcripts are dense in SCCs with several parent SCCs: diamonds,
ancestors shared by several cycles, nested cycles, parallel edges,
self-loops and red -> blue edges.  They are dense too in single-parent
vertices: leaves, which the pass does not search but counts from their
parent's closure, and chains, which it searches like any other vertex,
also where a chain closes a cycle through the vertex it hangs from or is
itself a cycle that nothing else enters.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclelab import BRParams, Coloring, QueryRecord, ancestor_count, epoch_stats
from cyclelab.analysis import _seen_set


def bfs_max(history: tuple[QueryRecord, ...], coloring: Coloring) -> int:
    kg = dict(history)
    return max((ancestor_count(kg, v) for v in _seen_set(kg) if coloring.is_blue(v)), default=0)


def max_ancestors(history: tuple[QueryRecord, ...], coloring: Coloring) -> int:
    return epoch_stats(history, coloring, len(history) or 1).max_ancestors_blue


@st.composite
def transcripts(draw):
    layers, width = draw(st.sampled_from([(4, 2), (4, 4), (6, 4), (8, 6)]))
    params = BRParams(layers * width // 2, layers, width, 2)
    base = [0] * params.n_blue + [i for i in range(1, layers + 1) for _ in range(width)]
    coloring = Coloring(params, np.array(draw(st.permutations(base))))
    vertex = st.integers(0, params.v_count - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * params.v_count))
    for a, b, c, d in draw(st.lists(st.tuples(vertex, vertex, vertex, vertex), max_size=4)):
        edges += [(a, b), (a, c), (b, d), (c, d)]
    for cycle in draw(st.lists(st.lists(vertex, min_size=1, max_size=6), max_size=4)):
        edges += list(zip(cycle, cycle[1:] + cycle[:1]))
    for path in draw(st.lists(st.lists(vertex, min_size=2, max_size=8), max_size=3)):
        edges += list(zip(path, path[1:]))  # single-parent chains, where nothing else enters
    if draw(st.booleans()):
        # hang every vertex no edge touches under one drawn vertex: mostly
        # single-parent leaves, but a parent may be one of them (a chain)
        # or the vertex itself (a self-loop)
        used = {v for edge in edges for v in edge}
        fresh = [v for v in range(params.v_count) if v not in used]
        edges += zip(draw(st.lists(vertex, min_size=len(fresh), max_size=len(fresh))), fresh)
    if draw(st.booleans()):
        # no red -> blue edge: the ancestors of the blue vertices are blue
        edges = [(u, w) for u, w in edges if coloring.is_blue(u) or not coloring.is_blue(w)]
    out: dict[int, list[int]] = {}
    for u, w in edges:
        out.setdefault(u, []).append(w)
    sinks = draw(st.lists(vertex, max_size=3))
    queried = list(out) + [v for v in dict.fromkeys(sinks) if v not in out]
    order = draw(st.permutations(queried))
    history = tuple(QueryRecord(u, tuple(out.get(u, ()))) for u in order)
    return history, coloring


@given(transcripts())
def test_max_ancestors_match_bfs(case):
    history, coloring = case
    assert max_ancestors(history, coloring) == bfs_max(history, coloring)


def transcript(edges) -> tuple[QueryRecord, ...]:
    out: dict[int, list[int]] = {}
    for u, w in edges:
        out.setdefault(u, []).append(w)
    return tuple(QueryRecord(u, tuple(row)) for u, row in out.items())


# BRParams(8, 4, 4, 2): vertices 0-7 blue, then red layers 1-4 of width 4
EIGHT_BLUE = Coloring(
    BRParams(8, 4, 4, 2), np.array([0] * 8 + [i for i in range(1, 5) for _ in range(4)])
)


def test_diamond_counts_the_union():
    # d = 3 has ancestors 0, 1 and 2: its two parents share 0
    history = transcript([(0, 1), (0, 2), (1, 3), (2, 3)])
    assert max_ancestors(history, EIGHT_BLUE) == 3 == bfs_max(history, EIGHT_BLUE)


def test_two_cycles_sharing_an_ancestor():
    # 0 -> the cycles 1 <-> 2 and 3 <-> 4, both of which feed 5:
    # 5 has the five ancestors 0-4, not 3 + 3
    edges = [(0, 1), (1, 2), (2, 1), (0, 3), (3, 4), (4, 3), (2, 5), (4, 5)]
    history = transcript(edges)
    assert max_ancestors(history, EIGHT_BLUE) == 5 == bfs_max(history, EIGHT_BLUE)
    # a red vertex above the shared ancestor is an ancestor of them all
    history = transcript([(8, 0), *edges])
    assert max_ancestors(history, EIGHT_BLUE) == 6 == bfs_max(history, EIGHT_BLUE)


def test_nested_cycles_under_a_red_cycle():
    # red 8 <-> 9 feeds blue 0, which closes the cycle 0 -> 1 -> 2 -> 0
    # around the inner cycle 1 <-> 2; 3 hangs below both
    edges = [(8, 9), (9, 8), (9, 0), (0, 1), (1, 2), (2, 1), (2, 0), (1, 3), (2, 3)]
    history = transcript(edges)
    assert max_ancestors(history, EIGHT_BLUE) == 5 == bfs_max(history, EIGHT_BLUE)


@pytest.mark.parametrize(
    "edges, expected",
    [
        # blue 0 hangs under red 8 alone: 8 is a root though no blue vertex is
        ([(8, 0)], 1),
        # the red cycle 8 <-> 9 above blue leaf 0
        ([(8, 9), (9, 8), (9, 0)], 2),
        # 2 and 3 are leaves of 1, which is not a leaf: it has edges out
        ([(0, 1), (1, 2), (1, 3)], 2),
        # 1 has in-degree 2 from the one parent 0, so it is not a leaf
        ([(0, 1), (0, 1)], 1),
    ],
)
def test_single_parent_leaves(edges, expected):
    history = transcript(edges)
    assert max_ancestors(history, EIGHT_BLUE) == expected == bfs_max(history, EIGHT_BLUE)


@pytest.mark.parametrize(
    "edges, expected",
    [
        # a cycle of single-parent vertices that nothing else enters, and a
        # chain below it: 4 has the ancestors 0-3
        ([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], 4),
        # the chain 0 -> 1 -> 2 closes a cycle through its head 0, which red
        # 8 also enters; 3 hangs below: ancestors 8, 0, 1 and 2
        ([(8, 0), (0, 1), (1, 2), (2, 0), (2, 3)], 4),
        # two branches of one chain meet again at 4: the shared 1 counts once
        ([(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], 5),
        # a long chain: 7 has the 7 ancestors 0-6
        ([(i, i + 1) for i in range(7)], 7),
    ],
)
def test_single_parent_chains(edges, expected):
    history = transcript(edges)
    assert max_ancestors(history, EIGHT_BLUE) == expected == bfs_max(history, EIGHT_BLUE)


def test_chain_longer_than_the_recursion_limit():
    # the path 4999 -> 4998 -> ... -> 0 on 5,000 blue vertices: the search
    # from 1 climbs every parent up to 4999, deeper than Python's default
    # recursion limit of 1,000.  On a path the end has the most ancestors,
    # so one BFS from it gives bfs_max's value without a BFS per vertex
    n = 5000
    coloring = Coloring(BRParams(n, 2, n, 2), np.repeat(np.arange(3), n))
    history = transcript([(i + 1, i) for i in range(n - 1)])
    assert max_ancestors(history, coloring) == n - 1 == ancestor_count(dict(history), 0)
