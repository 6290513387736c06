"""Property tests: the colour-walk loop and the wall build against their one-call-per-step
references, which poll the budget before every step."""

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
    wall_identify,
)
from cyclelab import finders
from cyclelab._draws import DrawSource, ScalarDraws
from cyclelab.finders import (
    _Budget,
    _implied_layers,
    _sink_verdict,
    _wall_settled,
    _wall_verdict,
)
from cyclelab.oracle import VertexOutOfRange


def reference_implied_layers(oracle, v, member_layer, layers, rng, num_walks, max_walk_len, stop):
    """One query_vertex call and one stop() poll before every step."""
    implied = []
    attempted = 0
    for _ in range(num_walks):
        if stop is not None and stop():
            break
        attempted += 1
        cur = v
        steps = 0
        while steps <= max_walk_len:
            if steps >= 1 and cur in member_layer:
                implied.append(member_layer[cur] - steps)
                break
            if stop is not None and stop():
                break
            answer = oracle.query_vertex(cur)
            if not answer:
                implied.append(layers - steps)
                break
            cur = answer[int(rng.integers(len(answer)))]
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
        "max_walk_len": draw(st.integers(0, 4 * layers)),
        # wall origins; an empty list leaves member_layer empty
        "walls": draw(st.lists(st.tuples(vertex, st.integers(0, 2)), max_size=3)),
        # small enough that the budget often runs out in the middle of a walk
        "max_queries": draw(st.integers(0, params.v_count)),
        "step_cap": draw(st.integers(1, 16)),
        "starts": draw(st.lists(vertex, min_size=1, max_size=12)),
    }


def twin(case):
    """An oracle with walls already built, a walk RNG and a budget."""
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
    return oracle, member_layer, np.random.default_rng(case["seed"] + 1), budget


def walk_once(loop, oracle, v, member_layer, layers, rng, case, stop):
    return loop(
        oracle, v, member_layer, layers, rng, case["num_walks"], case["max_walk_len"], stop
    )


def never_settled(implied, left, layers):
    return False


def full_walks(oracle, v, member_layer, layers, rng, num_walks, max_walk_len, stop_at):
    """The walk loop with a rule that never settles, so it runs every walk."""
    return _implied_layers(
        oracle, v, member_layer, layers, rng, num_walks, max_walk_len, stop_at, never_settled
    )


@given(walk_cases(), st.booleans())
def test_walk_loop_matches_reference(case, fast):
    # the loop draws from a DrawSource over rng (fast) or from the scalar
    # ScalarDraws, synced after each start
    layers = case["params"].layers
    ref_oracle, ref_members, ref_rng, ref_budget = twin(case)
    oracle, members, rng, budget = twin(case)
    walk_rng = DrawSource(rng) if fast else ScalarDraws(rng)
    assert members == ref_members
    for v in case["starts"]:
        # one budget step per colour test, as in the path-growth loop
        ref_budget.steps += 1
        budget.steps += 1
        want = walk_once(
            reference_implied_layers, ref_oracle, v, ref_members, layers, ref_rng, case,
            ref_budget.exhausted,
        )
        got = walk_once(full_walks, oracle, v, members, layers, walk_rng, case, budget.ceiling())
        walk_rng.sync()
        assert got == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert oracle.vertex_query_count == ref_oracle.vertex_query_count
        assert oracle.history == ref_oracle.history
        assert budget.used() <= case["max_queries"]


@given(walk_cases(), st.booleans())
def test_colour_tests_stop_on_the_full_walk_verdict(case, walls):
    # each colour test runs on the finder's state; the reference runs every
    # walk on a copy of that state, so its walks extend the test's own
    layers = case["params"].layers
    oracle, members, rng, budget = twin(case)
    if walls:
        test, verdict = functools.partial(wall_identify, member_layer=members), _wall_verdict
    else:
        members = {}
        test, verdict = identify_color, _sink_verdict
    num_walks = case["num_walks"]
    walked = []

    def recorded(*args):
        walked.append(_implied_layers(*args))
        return walked[-1]

    for v in case["starts"]:
        budget.steps += 1
        ref_oracle, ref_rng, ref_budget = copy.deepcopy((oracle, rng, budget))
        want = reference_implied_layers(
            ref_oracle, v, members, layers, ref_rng, num_walks, 4 * layers,
            ref_budget.exhausted,
        )
        walked.clear()
        with mock.patch.object(finders, "_implied_layers", recorded):
            est = test(oracle, v, layers=layers, rng=rng, num_walks=num_walks,
                       stop_at=budget.ceiling())
        history = list(oracle.history)
        assert history == list(ref_oracle.history)[:len(history)]
        assert budget.used() <= case["max_queries"]
        assert est.walks_used <= num_walks
        if v in members:  # a wall member's layer, with no walk
            assert est.color == members[v] and est.walks_used == 0 and not walked
            continue
        implied, attempted = walked[-1]
        assert est.walks_used == attempted
        want_implied, want_attempted = want
        assert implied == want_implied[:len(implied)]
        assert attempted <= want_attempted
        assert est.color == verdict(want_implied, layers)


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
    implied, attempted = _implied_layers(
        oracle, other, members, 4, draws, 3, 16, budget.ceiling(), _wall_settled
    )
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
        ref_oracle, v, {}, 8, ref_rng, 6, 32, ref_budget.exhausted
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
