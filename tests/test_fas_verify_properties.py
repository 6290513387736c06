"""Property tests: exact feedback arc sets against brute force, and cycle verification."""

from hypothesis import given
from hypothesis import strategies as st

from cyclelab import Digraph, verify_cycle

from fas_reference import backedge_count, min_fas_bruteforce, min_fas_exact


@st.composite
def small_digraphs(draw, max_vertices=8):
    v = draw(st.integers(0, max_vertices))
    if not v:
        return Digraph.from_lists([])
    vertex = st.integers(0, v - 1)
    # parallel edges and self-loops included: both count once or not at all
    rows = [draw(st.lists(vertex, max_size=v)) for _ in range(v)]
    return Digraph.from_lists(rows)


@given(small_digraphs())
def test_min_fas_exact_matches_bruteforce(graph):
    exact = min_fas_exact(graph)
    brute = min_fas_bruteforce(graph)
    assert exact.min_fas == brute.min_fas
    assert exact.epsilon == brute.epsilon
    assert backedge_count(graph, exact.witness_ordering) == exact.min_fas
    assert backedge_count(graph, brute.witness_ordering) == brute.min_fas
    assert sorted(exact.witness_ordering) == list(range(graph.v_count))


@st.composite
def planted_cycles(draw):
    """A graph whose only edges into the cycle's vertices are the cycle's own.

    Other edges leave the cycle or join the rest, so any corruption of the
    cycle uses a pair that is not an edge.
    """
    v = draw(st.integers(2, 12))
    order = draw(st.permutations(range(v)))
    k = draw(st.integers(2, v))
    cycle = order[:k]
    rest = order[k:]
    rows = [[] for _ in range(v)]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        rows[a].append(b)
    if rest:
        for u in range(v):
            rows[u] += draw(st.lists(st.sampled_from(rest), max_size=3))
    rows = [draw(st.permutations(row)) for row in rows]
    return Digraph.from_lists(rows), cycle, rest


@given(planted_cycles(), st.data())
def test_verify_cycle_accepts_rotations_and_rejects_corruptions(case, data):
    graph, cycle, rest = case
    k = len(cycle)
    for i in range(k):
        assert verify_cycle(graph, cycle[i:] + cycle[:i])
    i = data.draw(st.integers(0, k - 1))
    assert not verify_cycle(graph, cycle[:i] + cycle[i + 1:])  # a dropped vertex
    j = data.draw(st.integers(0, k))
    assert not verify_cycle(graph, cycle[:j] + [cycle[i]] + cycle[j:])  # a repeated vertex
    assert not verify_cycle(graph, cycle + cycle)  # every vertex repeated, every step an edge
    if k >= 3:
        assert not verify_cycle(graph, cycle[::-1])  # reversed: no edge runs backwards
    bad = data.draw(st.sampled_from([-1, graph.v_count, graph.v_count + 7]))
    assert not verify_cycle(graph, cycle[:i] + [bad] + cycle[i + 1:])  # an out-of-range id
    if rest:
        x = data.draw(st.sampled_from(rest))
        assert not verify_cycle(graph, cycle[:i] + [x] + cycle[i + 1:])  # a non-edge
