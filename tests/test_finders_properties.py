"""Property tests: the colour-walk loop against its one-call-per-step reference."""

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
    QueryModel,
    build_wall,
    gen_br_pair,
    gen_br_simple,
    identify_color,
    new_oracle,
    wall_identify,
)
from cyclelab import finders
from cyclelab._draws import DrawSource
from cyclelab.finders import (
    _Budget,
    _implied_layers,
    _sink_verdict,
    _wall_settled,
    _wall_verdict,
)
from cyclelab.oracle import RepeatedQuery, VertexOutOfRange


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
        # mostly lenient: a strict oracle raises at the first revisit
        "lenient": draw(st.sampled_from([True, True, True, False])),
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
    oracle = new_oracle(pair, QueryModel.VERTEX, lenient=case["lenient"])
    member_layer: dict[int, int] = {}
    for origin, depth in case["walls"]:
        color = pair.coloring.color(origin)
        try:
            wall = build_wall(oracle, origin, depth, layer_hint=color if color != BLUE else None)
        except RepeatedQuery:
            continue
        if wall is not None:
            for m in wall.members:
                member_layer.setdefault(m, wall.layer_estimate)
    budget = _Budget(oracle, case["max_queries"], case["step_cap"])
    return oracle, member_layer, np.random.default_rng(case["seed"] + 1), budget


def walk_once(loop, oracle, v, member_layer, layers, rng, case, budget):
    try:
        return loop(
            oracle, v, member_layer, layers, rng,
            case["num_walks"], case["max_walk_len"], budget.exhausted,
        )
    except RepeatedQuery:
        return RepeatedQuery


def never_settled(implied, left, layers):
    return False


def full_walks(oracle, v, member_layer, layers, rng, num_walks, max_walk_len, stop):
    """The walk loop with a rule that never settles, so it runs every walk."""
    return _implied_layers(
        oracle, v, member_layer, layers, rng, num_walks, max_walk_len, stop, never_settled
    )


@given(walk_cases(), st.booleans())
def test_walk_loop_matches_reference(case, fast):
    # fast: the loop draws from a DrawSource over rng, synced after each
    # start; otherwise it gets the Generator itself
    layers = case["params"].layers
    ref_oracle, ref_members, ref_rng, ref_budget = twin(case)
    oracle, members, rng, budget = twin(case)
    walk_rng = DrawSource(rng) if fast else rng
    assert members == ref_members
    for v in case["starts"]:
        # one budget step per colour test, as in the path-growth loop
        ref_budget.steps += 1
        budget.steps += 1
        want = walk_once(
            reference_implied_layers, ref_oracle, v, ref_members, layers, ref_rng, case, ref_budget
        )
        got = walk_once(full_walks, oracle, v, members, layers, walk_rng, case, budget)
        if fast:
            walk_rng.sync()
        assert got == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert oracle.vertex_query_count == ref_oracle.vertex_query_count
        assert oracle.history == ref_oracle.history
        assert budget.used() <= case["max_queries"]
        if want is RepeatedQuery:
            break


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
        try:
            want = reference_implied_layers(
                ref_oracle, v, members, layers, ref_rng, num_walks, 4 * layers,
                ref_budget.exhausted,
            )
        except RepeatedQuery:
            want = RepeatedQuery
        walked.clear()
        try:
            with mock.patch.object(finders, "_implied_layers", recorded):
                est = test(oracle, v, layers=layers, rng=rng, num_walks=num_walks,
                           stop=budget.exhausted)
        except RepeatedQuery:
            assert want is RepeatedQuery  # the test's walks are a prefix of the reference's
            break
        history = list(oracle.history)
        assert history == list(ref_oracle.history)[:len(history)]
        assert budget.used() <= case["max_queries"]
        assert est.walks_used <= num_walks
        if v in members:  # a wall member's layer, with no walk
            assert est.color == members[v] and est.walks_used == 0 and not walked
            continue
        implied, attempted = walked[-1]
        assert est.walks_used == attempted
        if want is RepeatedQuery:
            break  # settled before the revisit that ends the reference's walks
        want_implied, want_attempted = want
        assert implied == want_implied[:len(implied)]
        assert attempted <= want_attempted
        assert est.color == verdict(want_implied, layers)


def test_last_charged_query_can_still_step_onto_a_wall():
    # W = d = 2: a depth-1 wall under one layer-1 vertex is all of layer 2,
    # so the other layer-1 vertex steps onto the wall from its first query.
    pair = gen_br_pair(BRParams(4, 4, 2, 2), np.random.default_rng(0))
    oracle = new_oracle(pair, QueryModel.VERTEX, lenient=True)
    origin, other = (int(v) for v in pair.coloring.layer_vertices(1))
    wall = build_wall(oracle, origin, 1, layer_hint=1)
    assert wall.members == set(pair.coloring.layer_vertices(2))
    members = dict.fromkeys(wall.members, wall.layer_estimate)
    budget = _Budget(oracle, 1, 10)
    implied, attempted = _implied_layers(
        oracle, other, members, 4, np.random.default_rng(1), 3, 16, budget.exhausted,
        _wall_settled,
    )
    # the query on `other` spends the budget; its walk still ends on the
    # wall, and no further walk starts
    assert (implied, attempted) == ([1], 1)
    assert budget.used() == 1


def test_strict_oracle_still_raises_on_revisit():
    # 0 -> 1 -> 0: the second visit to 0 is a repeat
    g = gen_br_simple(2, 1, np.random.default_rng(0))
    oracle = new_oracle(g, QueryModel.VERTEX)
    with pytest.raises(RepeatedQuery):
        identify_color(oracle, 0, 2, np.random.default_rng(1), num_walks=1)
    assert oracle.vertex_query_count == 2


def test_adjacency_oracle_still_refuses_vertex_walks():
    g = gen_br_simple(8, 2, np.random.default_rng(0))
    oracle = new_oracle(g, QueryModel.ADJ_LIST, lenient=True)
    with pytest.raises(ValueError, match="adjacency-list"):
        identify_color(oracle, 0, 2, np.random.default_rng(1), num_walks=1)
    assert oracle.vertex_query_count == 0


@pytest.mark.parametrize("v", [-1, 24])
def test_out_of_range_start_still_raises(v):
    pair = gen_br_pair(BRParams(8, 4, 4, 2), np.random.default_rng(3))
    oracle = new_oracle(pair, QueryModel.VERTEX, lenient=True)
    identify_color(oracle, 0, 4, np.random.default_rng(4))  # fill the answer cache
    with pytest.raises(VertexOutOfRange):
        identify_color(oracle, v, 4, np.random.default_rng(4), num_walks=1)
