"""Property tests: the colour-walk loop and the wall build against their one-call-per-step
references, which poll the budget before every step; and alg2 against alg1."""

import copy
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclelab import (
    BLUE,
    BRParams,
    ColorEstimate,
    QueryModel,
    build_wall,
    gen_br_pair,
    gen_br_simple,
    identify_color,
    new_oracle,
    run_algorithm1,
    run_algorithm2,
    wall_identify,
)
from cyclelab import finders
from cyclelab._draws import DrawSource, ScalarDraws
from cyclelab.finders import _Budget, _implied_layers, _sink_verdict
from cyclelab.oracle import VertexOutOfRange


def reference_labels(out, member_layer, anchor, layer):
    """Breadth first from a red anchor: it gets ``layer``, and each vertex that is
    unlabelled and known below it through unlabelled queried vertices gets
    ``layer`` plus its distance.  On br every red path between two vertices
    has the same length, so the order of the search cannot change a label."""
    fresh = {anchor: layer}
    frontier = [anchor]
    while frontier:
        nxt = []
        for u in frontier:
            for c in out.get(u, ()):
                if c not in member_layer and c not in fresh:
                    fresh[c] = fresh[u] + 1
                    nxt.append(c)
        frontier = nxt
    member_layer.update(fresh)


def blue_is_settled(implied, layers):
    """The settle rule: no walk starts once the walks so far give a blue verdict."""
    return _sink_verdict(implied, layers) == BLUE


def reference_implied_layers(oracle, v, member_layer, layers, rng, num_walks, stop, *,
                             settle=True, sink_walks=None):
    """One query_vertex call and one stop() poll before every step.

    The first walk's first step draws an offset r below the start's
    out-degree d; walk k (from 0) steps first to child (r + k) mod d with
    no draw, and every later step draws.  Walks run for at most 4L steps.
    A walk that reaches a sink after s steps labels the vertex
    k = min(s, L/2) steps above the sink with L - k, and every known
    vertex below it, and its number (from 1) goes on ``sink_walks`` when
    that is a list.  No walk starts once v has a label, nor, with
    ``settle``, once ``blue_is_settled``; without it the walks left run
    all the same.
    """
    implied = []
    attempted = 0
    offset = None
    for walk in range(num_walks):
        if (v in member_layer or (settle and blue_is_settled(implied, layers))
                or (stop is not None and stop())):
            break
        attempted += 1
        cur = v
        path = [v]
        steps = 0
        while steps <= 4 * layers:
            if steps >= 1 and cur in member_layer:
                implied.append(member_layer[cur] - steps)
                break
            if stop is not None and stop():
                break
            answer = oracle.query_vertex(cur)
            if not answer:
                implied.append(layers - steps)
                k = min(steps, layers // 2)
                reference_labels(oracle.kg, member_layer, path[steps - k], layers - k)
                if sink_walks is not None:
                    sink_walks.append(attempted)
                break
            if steps:
                cur = answer[int(rng.integers(len(answer)))]
            else:
                if offset is None:
                    offset = int(rng.integers(len(answer)))
                cur = answer[(offset + walk) % len(answer)]
            path.append(cur)
            steps += 1
    return implied, attempted


@st.composite
def walk_cases(draw):
    """Small BRParams, a seed, walk settings, wall origins and start vertices."""
    layers = draw(st.sampled_from([2, 4, 6, 8]))
    width = draw(st.integers(2, 8))
    n_blue = layers * width // 2
    d = draw(st.integers(2, min(width, 2 * n_blue - 1)))
    params = BRParams(n_blue, layers, width, d)
    vertex = st.integers(0, params.v_count - 1)
    return {
        "params": params,
        "seed": draw(st.integers(0, 2**32 - 1)),
        "num_walks": draw(st.integers(0, 8)),
        # wall origins; an empty list leaves member_layer empty
        "walls": draw(st.lists(st.tuples(vertex, st.integers(0, 2)), max_size=3)),
        # small enough that the budget often runs out in the middle of a walk
        "max_queries": draw(st.integers(0, params.v_count)),
        "step_cap": draw(st.integers(1, 16)),
        "starts": draw(st.lists(vertex, min_size=1, max_size=12)),
    }


def twin(case):
    """An oracle with walls already built, a walk RNG, a budget and the colouring."""
    pair = gen_br_pair(case["params"], np.random.default_rng(case["seed"]))
    oracle = new_oracle(pair, QueryModel.VERTEX)
    member_layer: dict[int, int] = {}
    for origin, depth in case["walls"]:
        color = pair.coloring.color(origin)
        wall = build_wall(oracle, origin, depth, layer_hint=color if color != BLUE else None)
        if wall is not None:
            for m in wall.members:
                member_layer.setdefault(m, wall.layer_estimate)
    budget = _Budget(oracle, case["max_queries"], case["step_cap"])
    return oracle, member_layer, np.random.default_rng(case["seed"] + 1), budget, pair.coloring


@given(walk_cases(), st.booleans())
def test_walk_loop_matches_reference(case, fast):
    # the loop draws from a DrawSource over rng (fast) or from the scalar
    # ScalarDraws, synced after each start
    layers = case["params"].layers
    ref_oracle, ref_members, ref_rng, ref_budget, _ = twin(case)
    oracle, members, rng, budget, _ = twin(case)
    walk_rng = DrawSource(rng) if fast else ScalarDraws(rng)
    assert members == ref_members
    for v in case["starts"]:
        # one budget step per colour test, as in the path-growth loop
        ref_budget.steps += 1
        budget.steps += 1
        want = reference_implied_layers(
            ref_oracle, v, ref_members, layers, ref_rng, case["num_walks"], ref_budget.exhausted
        )
        got = _implied_layers(
            oracle, v, members, layers, walk_rng, case["num_walks"], budget.ceiling()
        )
        walk_rng.sync()
        assert got == want
        assert members == ref_members
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert oracle.vertex_query_count == ref_oracle.vertex_query_count
        assert oracle.history == ref_oracle.history
        assert budget.used() <= case["max_queries"]


@given(walk_cases(), st.booleans())
def test_colour_tests_stop_on_the_full_walk_verdict(case, walls):
    # each colour test runs on the finder's state; the reference runs every
    # walk on a copy of that state, so its walks extend the test's own
    layers = case["params"].layers
    oracle, members, rng, budget, coloring = twin(case)
    # both tests take the sink rule's unanimous verdict, or the start's label
    # once a sink walk teaches it
    if walls:
        test = functools.partial(wall_identify, member_layer=members)
    else:  # walks to sinks alone, on the same oracle state
        test, members = identify_color, {}
    num_walks = case["num_walks"]
    walked = []

    def recorded(*args):
        walked.append((_implied_layers(*args), args[2]))
        return walked[-1][0]

    for v in case["starts"]:
        budget.steps += 1
        ref_oracle, ref_rng, ref_budget, ref_members = copy.deepcopy((oracle, rng, budget, members))
        want = reference_implied_layers(
            ref_oracle, v, ref_members, layers, ref_rng, num_walks, ref_budget.exhausted,
            settle=False,
        )
        walked.clear()
        known = members.get(v)  # identify_color's own map starts empty
        with mock.patch.object(finders, "_implied_layers", recorded):
            est = test(oracle, v, layers=layers, rng=rng, num_walks=num_walks,
                       stop_at=budget.ceiling())
        history = list(oracle.history)
        assert history == list(ref_oracle.history)[:len(history)]
        assert budget.used() <= case["max_queries"]
        assert est.walks_used <= num_walks
        if known is not None:  # a known layer, with no walk
            assert est == ColorEstimate(known, 0) and not walked
            continue
        (implied, attempted), learned = walked[-1]
        # the test's walks are the reference's first walks, and so are the
        # labels they teach
        assert est.walks_used == attempted
        want_implied, want_attempted = want
        assert implied == want_implied[:len(implied)]
        assert attempted <= want_attempted
        assert learned.items() <= ref_members.items()
        want_color = ref_members.get(v, _sink_verdict(want_implied, layers))
        if attempted == want_attempted:  # the same walks, the same stop
            assert est.color == want_color
        else:  # settled early: blue, which only a label can override
            assert est.is_blue and blue_is_settled(implied, layers)
            if est.color != want_color:
                # a later walk labelled the start with its true layer: the
                # walks before it disagreed, which needs a wrong wall label
                assert want_color == ref_members[v] == coloring.color(v)
                assert any(coloring.color(u) != layer for u, layer in members.items())


class LoggedLabels(dict):
    """A layer map that logs each key the walk loop asks it about."""

    def __init__(self, log, *args):
        super().__init__(*args)
        self.log = log

    def __contains__(self, key):
        self.log.append(key)
        return super().__contains__(key)


WALK_START = object()


@given(walk_cases(), st.booleans())
def test_first_walks_leave_the_start_on_distinct_children(case, walls):
    # the loop asks for the verdict so far before each walk, and each walk
    # then asks the layer map about its first child before anything else, so
    # a log of both gives every walk's first child.  Those of one test are
    # consecutive children of the start, cyclically from one offset; the
    # first min(num_walks, d) are distinct.  With only the exact labels that
    # sink walks teach, a layer-1 start above L/2 takes every walk, since its
    # red verdict is never settled early
    params = case["params"]
    layers = params.layers
    oracle, members, rng, _, coloring = twin(case)
    if not walls:
        members = {}
    log = []

    def logged_verdict(implied, layers):
        log.append(WALK_START)
        return _sink_verdict(implied, layers)

    starts = [*case["starts"], int(coloring.layer_vertices(1)[0])]
    draws = DrawSource(rng)
    with mock.patch.object(finders, "_sink_verdict", logged_verdict):
        for v in starts:
            log.clear()
            labels = LoggedLabels(log, members)
            _, attempted = _implied_layers(
                oracle, v, labels, layers, draws, case["num_walks"], None
            )
            members = dict(labels)
            children = oracle.kg.get(v)
            if not attempted or not children:  # a labelled start, or a sink
                continue
            firsts = [log[i + 1] for i, e in enumerate(log[:-1]) if e is WALK_START]
            assert len(firsts) == attempted
            d = len(children)
            offset = children.index(firsts[0])
            assert firsts == [children[(offset + k) % d] for k in range(attempted)]
            assert len(set(firsts[:d])) == min(attempted, d)
            if not walls and coloring.color(v) == 1 and layers > 2:
                assert attempted == case["num_walks"]


def test_last_charged_query_can_still_step_onto_a_wall():
    # W = d = 2: a depth-1 wall under one layer-1 vertex is all of layer 2,
    # so the other layer-1 vertex steps onto the wall from its first query.
    pair = gen_br_pair(BRParams(4, 4, 2, 2), np.random.default_rng(0))
    oracle = new_oracle(pair, QueryModel.VERTEX)
    origin, other = (int(v) for v in pair.coloring.layer_vertices(1))
    wall = build_wall(oracle, origin, 1, layer_hint=1)
    assert wall.members == set(pair.coloring.layer_vertices(2))
    members = dict.fromkeys(wall.members, wall.layer_estimate)
    budget = _Budget(oracle, 1, 10)
    draws = DrawSource(np.random.default_rng(1))
    implied, attempted = _implied_layers(oracle, other, members, 4, draws, 3, budget.ceiling())
    draws.sync()
    # the query on `other` spends the budget; its walk still ends on the
    # wall, and no further walk starts
    assert (implied, attempted) == ([1], 1)
    assert budget.used() == 1


def test_adjacency_oracle_still_refuses_vertex_walks():
    g = gen_br_simple(8, 2, np.random.default_rng(0))
    oracle = new_oracle(g, QueryModel.ADJ_LIST)
    with pytest.raises(ValueError, match="adjacency-list"):
        identify_color(oracle, 0, 2, np.random.default_rng(1), num_walks=1)
    assert oracle.vertex_query_count == 0


@pytest.mark.parametrize("v", [-1, 24])
def test_out_of_range_start_still_raises(v):
    pair = gen_br_pair(BRParams(8, 4, 4, 2), np.random.default_rng(3))
    oracle = new_oracle(pair, QueryModel.VERTEX)
    identify_color(oracle, 0, 4, np.random.default_rng(4))  # fill the answer cache
    with pytest.raises(VertexOutOfRange):
        identify_color(oracle, v, 4, np.random.default_rng(4), num_walks=1)


# -- budget stops: the query ceiling against the stop() poll it replaced ----------


def reference_build_wall(oracle, v, depth, stop):
    """build_wall's levels as they were, with one stop() poll before each frontier vertex."""
    frontier = {v}
    for _ in range(depth):
        nxt: set[int] = set()
        for u in sorted(frontier):
            if stop():
                return None
            answer = oracle.query_vertex(u)
            if not answer:
                return None
            nxt.update(answer)
        frontier = nxt
    return frozenset(frontier)


def layer_one_twins(params, seed):
    """Two oracles on one instance, and a layer-1 vertex of it."""
    pair = gen_br_pair(params, np.random.default_rng(seed))
    v = int(pair.coloring.layer_vertices(1)[0])
    return [new_oracle(pair, QueryModel.VERTEX) for _ in range(2)], v, pair


@pytest.mark.parametrize("max_queries", range(0, 19))
def test_colour_test_stops_mid_walk_on_the_polled_query(max_queries):
    # a walk from layer 1 of 8 queries 8 vertices before its sink ends it,
    # so most of these budgets run out in the middle of a walk
    (ref_oracle, oracle), v, _ = layer_one_twins(BRParams(256, 8, 64, 4), 11)
    ref_budget, budget = _Budget(ref_oracle, max_queries, 10), _Budget(oracle, max_queries, 10)
    ref_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
    implied, attempted = reference_implied_layers(
        ref_oracle, v, {}, 8, ref_rng, 6, ref_budget.exhausted
    )
    est = identify_color(oracle, v, 8, rng, num_walks=6, stop_at=budget.ceiling())
    assert oracle.history == ref_oracle.history
    assert budget.used() == ref_budget.used() <= max_queries
    if 0 < max_queries < 8:  # spent inside the first walk, which implies nothing
        assert (implied, attempted) == ([], 1)
    assert est.walks_used == attempted
    assert est.color == _sink_verdict(implied, 8)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("max_queries", range(0, 24))
def test_wall_build_stops_mid_level_on_the_polled_query(max_queries):
    # depth 3 at d = 4: one query on level 0, four on level 1, up to sixteen
    # on level 2; two level-1 vertices are cached before the build, and the
    # poll came before cached vertices too
    (ref_oracle, oracle), v, pair = layer_one_twins(BRParams(256, 8, 64, 4), 12)
    for o in (ref_oracle, oracle):
        for u in sorted(pair.graph.out_list(v))[1:3]:
            o.query_vertex(u)
    ref_budget, budget = _Budget(ref_oracle, max_queries, 10), _Budget(oracle, max_queries, 10)
    want = reference_build_wall(ref_oracle, v, 3, ref_budget.exhausted)
    if 1 <= max_queries < 7:  # spent inside level 1 or level 2 (at least d = 4 wide)
        assert want is None
    wall = build_wall(oracle, v, 3, layer_hint=1, stop_at=budget.ceiling())
    assert (wall.members if wall is not None else None) == want
    assert oracle.history == ref_oracle.history
    assert budget.used() == ref_budget.used() <= max_queries


def test_spent_step_cap_starts_no_walk_and_no_build():
    (oracle, _), v, pair = layer_one_twins(BRParams(256, 8, 64, 4), 13)
    budget = _Budget(oracle, 100, step_cap=3)
    budget.steps = 3
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    member = int(pair.coloring.layer_vertices(5)[0])
    assert identify_color(oracle, v, 8, rng, stop_at=budget.ceiling()) == ColorEstimate(None, 0)
    est = wall_identify(oracle, v, {member: 5}, 8, rng, stop_at=budget.ceiling())
    assert est == ColorEstimate(None, 0)
    assert build_wall(oracle, v, 2, stop_at=budget.ceiling()) is None
    assert oracle.vertex_query_count == 0 and rng.bit_generator.state == state


@pytest.mark.parametrize("model", [QueryModel.VERTEX, QueryModel.ADJ_LIST])
def test_ceiling_agrees_with_exhausted(model):
    # after each query and each step, until both the budget and the cap are spent
    pair = gen_br_pair(BRParams(16, 4, 8, 3), np.random.default_rng(14))
    oracle = new_oracle(pair, model)
    query = oracle.query_vertex if model is QueryModel.VERTEX else lambda u: oracle.query_adj(u, 1)
    query(0)  # a budget opens on a meter that has moved
    budget = _Budget(oracle, 5, step_cap=9)
    for u in range(1, 13):
        assert (oracle.vertex_query_count >= budget.ceiling()) == budget.exhausted()
        query(u)
        budget.steps += 1
        assert (oracle.vertex_query_count >= budget.ceiling()) == budget.exhausted()
    assert budget.exhausted()


@st.composite
def finder_cases(draw):
    """Small BRParams, a seed, a budget (None for the default) and a walk count.

    Every shape with floor(log_d W) < L, most of those drawn, is one where
    alg2 used to build walls before its path search.
    """
    layers = draw(st.sampled_from([2, 4, 6, 8]))
    width = draw(st.integers(2, 16))
    n_blue = layers * width // 2
    d = draw(st.integers(2, min(width, 2 * n_blue - 1)))
    params = BRParams(n_blue, layers, width, d)
    return {
        "params": params,
        "seed": draw(st.integers(0, 2**32 - 1)),
        "budget": draw(st.none() | st.integers(1, 3 * params.v_count)),
        "num_walks": draw(st.integers(1, 6)),
    }


@given(finder_cases())
def test_algorithm2_runs_the_algorithm1_finder(case):
    # the same outcome (cycle, queries, stop reason, counters), the same
    # knowledge graph in query order and the same generator state afterwards
    params = case["params"]
    pair = gen_br_pair(params, np.random.default_rng(case["seed"]))
    runs = []
    for finder in (run_algorithm1, run_algorithm2):
        oracle = new_oracle(pair, QueryModel.VERTEX)
        rng = np.random.default_rng(case["seed"] + 1)
        out = finder(oracle, params, rng, budget=case["budget"], num_walks=case["num_walks"])
        runs.append((out, list(oracle.kg.items()), rng.bit_generator.state))
    assert runs[0] == runs[1]
