"""Property tests: the knowledge graph's derived in-edge index and detect_cycle.

The knowledge graph is a plain dict from each queried vertex to its
answer; an oracle's is ``oracle.kg``, its transcript in query order.

``reference_detect_cycle`` is the earlier backward search over in-edges;
the forward search must agree with it on whether a cycle exists and on its
length, and must return a real simple cycle through the queried vertex.
``forward_detect_cycle`` is the forward search before it left unqueried
vertices off its frontier; ``detect_cycle`` must return its very list.
On br, skipping red vertices must not change that list either.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclelab import (
    BLUE,
    BRParams,
    Digraph,
    QueryModel,
    QueryRecord,
    detect_cycle,
    gen_br_pair,
    gen_br_simple,
    new_oracle,
    verify_cycle,
)
from cyclelab.analysis import _in_edges, _seen_set

from colouring_law import KG, sinks


def reference_detect_cycle(kg: KG, last: QueryRecord) -> list[int] | None:
    """Shortest cycle through last.vertex, found by walking in-edges back from it."""
    u = last.vertex
    targets = set(last.answer)
    if not targets:
        return None
    parents = _in_edges(kg)
    next_hop: dict[int, int] = {}
    frontier = [u]
    seen = {u}
    while frontier:
        nxt = []
        for y in frontier:
            for x in parents.get(y, ()):
                if x in seen:
                    continue
                seen.add(x)
                next_hop[x] = y
                if x in targets:
                    cycle = [u, x]
                    step = next_hop[x]
                    while step != u:
                        cycle.append(step)
                        step = next_hop[step]
                    return cycle
                nxt.append(x)
        frontier = nxt
    return None


def forward_detect_cycle(kg: KG, last: QueryRecord) -> list[int] | None:
    """Shortest cycle through last.vertex by a forward BFS over every vertex it meets."""
    u, answer = last
    prev: dict[int, int] = {}
    frontier = []
    for x in answer:
        if x != u and x not in prev:
            prev[x] = u
            frontier.append(x)
    while frontier:
        nxt = []
        for y in frontier:
            for z in kg.get(y, ()):
                if z == u:
                    cycle = [y]
                    while (y := prev[y]) != u:
                        cycle.append(y)
                    cycle.append(u)
                    cycle.reverse()
                    return cycle
                if z not in prev:
                    prev[z] = y
                    nxt.append(z)
        frontier = nxt
    return None


def check_against_reference(kg: KG, last: QueryRecord, hidden: Digraph) -> None:
    got = detect_cycle(kg, *last)
    # the same list, vertex for vertex, as the search over every vertex it meets
    assert got == forward_detect_cycle(kg, last)
    want = reference_detect_cycle(kg, last)
    assert (got is None) == (want is None)
    if got is None:
        return
    assert len(got) == len(want)
    assert got[0] == last.vertex
    assert len(set(got)) == len(got)
    for a, b in zip(got, got[1:] + got[:1]):
        assert b in kg[a]
    assert verify_cycle(hidden, got)


seeds = st.integers(0, 2**32 - 1)


@st.composite
def br_pairs(draw):
    """A small layered pair: L in 2..8, W in 2..8, any legal d."""
    layers = draw(st.sampled_from([2, 4, 6, 8]))
    width = draw(st.integers(2, 8))
    n_blue = layers * width // 2
    d = draw(st.integers(2, min(width, 2 * n_blue - 1)))
    return gen_br_pair(BRParams(n_blue, layers, width, d), np.random.default_rng(draw(seeds)))


@st.composite
def graphs(draw):
    """A hidden graph: a layered pair, a brsimple graph, or arbitrary lists.

    brsimple lists repeat entries; the arbitrary lists also hold self-loops
    and sinks.
    """
    kind = draw(st.sampled_from(["br", "brsimple", "lists"]))
    if kind == "br":
        return draw(br_pairs())
    rng = np.random.default_rng(draw(seeds))
    if kind == "brsimple":
        return gen_br_simple(2 * draw(st.integers(1, 60)), draw(st.integers(1, 3)), rng)
    n = draw(st.integers(1, 30))
    row = st.lists(st.integers(0, n - 1), max_size=3)
    return Digraph.from_lists(draw(st.lists(row, min_size=n, max_size=n)))


# A plan is a walk seed and a length.  Each step follows an entry of the
# last answer, or jumps to a random vertex (always after a sink), so
# histories hold long paths, close cycles and revisit vertices.
plans = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 150), st.sampled_from([0.05, 0.3]))


def walk(oracle, plan):
    """Query along the plan; yields each queried vertex with its answer."""
    seed, length, jump_p = plan
    rng = np.random.default_rng(seed)
    answer: tuple[int, ...] = ()
    for _ in range(length):
        if not answer or rng.random() < jump_p:
            u = int(rng.integers(oracle.v_count))
        else:
            u = answer[int(rng.integers(len(answer)))]
        answer = oracle.query_vertex(u)
        yield u, answer


@given(graphs(), plans)
def test_detect_cycle_matches_backward_reference(instance, plan):
    oracle = new_oracle(instance, QueryModel.VERTEX)
    for u, answer in walk(oracle, plan):
        check_against_reference(oracle.kg, QueryRecord(u, answer), oracle.hidden_graph)


@given(st.integers(1, 30), st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=80))
def test_detect_cycle_matches_reference_on_added_edges(n, edges):
    edges = [(u % n, v % n) for u, v in edges]
    lists: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        lists[u].append(v)
    hidden = Digraph.from_lists(lists)
    kg: KG = {}
    for u, v in edges:
        kg[u] = kg.get(u, ()) + (v,)  # the birthday sampler's one-entry update
        check_against_reference(kg, QueryRecord(u, (v,)), hidden)


def test_detect_cycle_is_shortest_through_the_queried_vertex():
    # 0 -> 1 -> 2 -> 3 -> 0 and the chord 0 -> 3: the chord closes a 2-cycle
    kg = {1: (2,), 2: (3,), 3: (0,), 0: (1, 3)}
    assert detect_cycle(kg, 0, (1, 3)) == [0, 3]
    # a self-loop alone closes nothing
    assert detect_cycle({5: (5,)}, 5, (5,)) is None
    assert detect_cycle({5: (5, 6), 6: (5,)}, 5, (5, 6)) == [5, 6]


@given(br_pairs(), plans, seeds)
def test_skipping_red_vertices_returns_the_same_cycle(pair, plan, seed):
    # a red vertex points only into the next red layer, so no cycle through
    # a blue vertex passes it: any set of red vertices, queried or not, may
    # be skipped, and the very same list comes back
    oracle = new_oracle(pair, QueryModel.VERTEX)
    for _ in walk(oracle, plan):
        pass
    layer = pair.coloring.layer_by_vertex
    red = np.flatnonzero(layer != BLUE)
    rng = np.random.default_rng(seed)
    # a random subset of the red vertices, of random density, with their layers
    skip = {int(v): int(layer[v]) for v in red[rng.random(len(red)) < rng.random()]}
    kg = oracle.kg
    for u in kg:
        if layer[u] == BLUE:
            assert detect_cycle(kg, u, kg[u], skip=skip) == detect_cycle(kg, u, kg[u])


@given(graphs(), plans, st.lists(st.booleans(), min_size=150, max_size=150))
def test_in_edges_follow_the_history(instance, plan, reads):
    oracle = new_oracle(instance, QueryModel.VERTEX)
    first_visits: dict[int, None] = {}
    for (u, _), read in zip(walk(oracle, plan), reads):
        first_visits.setdefault(u)
        # reading only some of the time leaves several adds between reads
        if not read:
            continue
        history = oracle.history
        # the knowledge graph is the transcript itself: a plain dict whose
        # items are the history's records, one per charged query
        assert type(oracle.kg) is dict
        assert list(oracle.kg.items()) == list(history)
        assert len(oracle.kg) == oracle.vertex_query_count
        # cached replays neither append to the transcript nor reorder it
        assert [rec.vertex for rec in history] == list(first_visits)
        rebuilt = dict(history)
        assert _in_edges(oracle.kg) == _in_edges(rebuilt)
        assert _seen_set(oracle.kg) == _seen_set(rebuilt)
        assert sinks(oracle.kg) == sinks(rebuilt)
        entries = sorted((rec.vertex, v) for rec in history for v in rec.answer)
        parents, rebuilt_parents = _in_edges(oracle.kg), _in_edges(rebuilt)
        assert sorted((p, v) for v, ps in parents.items() for p in ps) == entries
        for v in (*_seen_set(rebuilt), -1):
            assert parents.get(v, []) == rebuilt_parents.get(v, [])


@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
    st.lists(st.booleans(), min_size=40, max_size=40),
)
def test_in_edges_follow_added_edges(edges, reads):
    kg: KG = {}
    parents: dict[int, list[int]] = {}
    for (u, v), read in zip(edges, reads):
        kg[u] = kg.get(u, ()) + (v,)
        parents.setdefault(v, []).append(u)
        if not read:
            continue
        assert _seen_set(kg) == set(parents).union(*parents.values())
        # one parent per added entry; the index lists them in kg order
        assert {v: sorted(p) for v, p in _in_edges(kg).items()} == {
            v: sorted(p) for v, p in parents.items()
        }
        in_edges = _in_edges(kg)
        for v in range(-1, 10):
            assert sorted(in_edges.get(v, [])) == sorted(parents.get(v, []))


def test_query_record_is_an_immutable_value():
    rec = QueryRecord(3, (4, 5))
    assert rec == QueryRecord(vertex=3, answer=(4, 5))
    assert hash(rec) == hash(QueryRecord(3, (4, 5)))
    assert (rec.vertex, rec.answer) == (3, (4, 5))
    with pytest.raises(AttributeError):
        rec.vertex = 7
