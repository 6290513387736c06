"""Cycle finder behavior: walks, sampling, color identification, walls."""

import numpy as np
import pytest

from cyclelab import (
    BLUE,
    BRParams,
    Digraph,
    FinderOutcome,
    Oracle,
    QueryModel,
    auto_params,
    build_wall,
    gen_br_pair,
    gen_br_simple,
    identify_color,
    new_oracle,
    run_algorithm1,
    run_algorithm2,
    run_bfs_heuristic,
    run_birthday_sampler,
    run_random_walk_finder,
    verify_cycle,
    wall_identify,
)
from cyclelab import finders
from cyclelab.finders import _sink_settled, _sink_verdict, _wall_settled, _wall_verdict

from test_oracle import hand_pair_l8


def test_outcome_success_property():
    assert FinderOutcome(cycle=[0, 1], queries_used=2, aux={}).success
    assert not FinderOutcome(cycle=None, queries_used=2, aux={}).success


# -- random walk ----------------------------------------------------------------


def test_walk_forced_two_cycle():
    g = gen_br_simple(2, 1, np.random.default_rng(0))
    oracle = new_oracle(g, model=QueryModel.VERTEX)
    out = run_random_walk_finder(oracle, 4, np.random.default_rng(1))
    assert out.success and set(out.cycle) == {0, 1}
    assert out.queries_used <= 2
    assert verify_cycle(g, out.cycle)


def test_walk_from_red_drains_to_sink():
    # every path out of a red vertex is layer-monotone, so a walk started
    # there reaches a sink in exactly L - i steps with nothing to revisit
    pair = hand_pair_l8()
    lay = pair.coloring.layer_by_vertex
    for start in (16, 25, 34):
        v, steps = start, 0
        while pair.graph.out_list(v):
            v = pair.graph.out_list(v)[0]
            steps += 1
        assert steps == 8 - lay[start]
        assert lay[v] == 8


def test_walk_respects_budget():
    g = gen_br_simple(10_000, 3, np.random.default_rng(2))
    oracle = new_oracle(g, model=QueryModel.VERTEX)
    out = run_random_walk_finder(oracle, 5, np.random.default_rng(3))
    assert not out.success
    assert out.queries_used <= 5
    assert out.queries_used == oracle.vertex_query_count


def test_walk_sink_restarts_count_against_the_step_cap():
    # every vertex is a sink: once all three are known, restarts charge no
    # query, so only the step cap (20 x budget) can end the finder
    g = Digraph.from_lists([[], [], []])
    oracle = new_oracle(g, model=QueryModel.VERTEX)
    out = run_random_walk_finder(oracle, 4, np.random.default_rng(0))
    assert not out.success
    assert out.queries_used == 3
    assert out.aux["restarts"] == 80


# -- birthday sampler -------------------------------------------------------------


def test_birthday_needs_adjacency_model():
    g = gen_br_simple(10, 1, np.random.default_rng(0))
    oracle = new_oracle(g, model=QueryModel.VERTEX)
    with pytest.raises(ValueError):
        run_birthday_sampler(oracle, 10, np.random.default_rng(0))


def test_birthday_never_repeats_a_cell():
    # 4 vertices at d=1 leave only 4 cells; a huge budget must stop there
    g = gen_br_simple(4, 1, np.random.default_rng(1))
    oracle = new_oracle(g, model=QueryModel.ADJ_LIST)
    out = run_birthday_sampler(oracle, 100, np.random.default_rng(2))
    assert out.aux["cells"] == 4
    assert oracle.adj_query_count == 4
    assert out.queries_used == 4


def test_birthday_few_collisions_below_sqrt():
    rng = np.random.default_rng(61)
    total = 0
    for _ in range(500):
        g = gen_br_simple(10_000, 3, rng)
        oracle = new_oracle(g, model=QueryModel.ADJ_LIST)
        out = run_birthday_sampler(oracle, 30, rng)
        total += out.aux["collisions"]
        assert out.queries_used == oracle.adj_query_count
    assert total / 500 < 0.5


def test_birthday_collisions_grow_past_sqrt():
    rng = np.random.default_rng(62)
    means = []
    for budget in (100, 400, 1600):  # sqrt(V), 4 sqrt(V), 16 sqrt(V)
        total = 0
        for _ in range(30):
            g = gen_br_simple(10_000, 3, rng)
            oracle = new_oracle(g, model=QueryModel.ADJ_LIST)
            total += run_birthday_sampler(oracle, budget, rng).aux["collisions"]
        means.append(total / 30)
    assert means[0] < means[1] < means[2]


def test_birthday_collision_counts_are_pinned():
    # frozen counts; the br instances have sinks, whose empty cells still
    # make the sampled vertex seen
    cases = []
    for seed in (5, 6, 7):
        rng = np.random.default_rng(seed)
        g = gen_br_simple(2000, 3, rng)
        oracle = new_oracle(g, model=QueryModel.ADJ_LIST)
        cases.append(run_birthday_sampler(oracle, 400, rng).aux["collisions"])
    for seed in (5, 6, 7):
        rng = np.random.default_rng(seed)
        pair = gen_br_pair(auto_params(512, 2), rng)
        oracle = new_oracle(pair, model=QueryModel.ADJ_LIST)
        cases.append(run_birthday_sampler(oracle, 300, rng).aux["collisions"])
    assert cases == [61, 63, 65, 50, 47, 43]


def test_birthday_claimed_cycles_verify():
    rng = np.random.default_rng(63)
    wins = 0
    for _ in range(30):
        g = gen_br_simple(400, 3, rng)
        oracle = new_oracle(g, model=QueryModel.ADJ_LIST)
        out = run_birthday_sampler(oracle, 200, rng)
        if out.success:
            assert verify_cycle(g, out.cycle)
            wins += 1
    assert wins >= 1  # a statistics baseline, not a strong finder


# -- color identification ----------------------------------------------------------


def test_identify_zero_walks_is_unknown():
    oracle = new_oracle(hand_pair_l8(), model=QueryModel.VERTEX)
    est = identify_color(oracle, 16, 8, np.random.default_rng(0), num_walks=0)
    assert est.is_unknown and est.walks_used == 0


def test_identify_red_layers_exactly():
    # all walks from red_i sink-terminate after exactly L - i edges
    oracle = new_oracle(hand_pair_l8(), model=QueryModel.VERTEX)
    rng = np.random.default_rng(7)
    for v, layer in ((16, 1), (24, 3), (32, 5), (44, 8)):
        est = identify_color(oracle, v, 8, rng)
        assert est.color == layer


def test_identify_blue_by_differing_distances():
    # blues 0 and 1 see sink distances 8 and 9 depending on the first hop
    oracle = new_oracle(hand_pair_l8(), model=QueryModel.VERTEX)
    rng = np.random.default_rng(0)
    assert identify_color(oracle, 0, 8, rng).is_blue
    assert identify_color(oracle, 1, 8, rng).is_blue


def test_identify_bulk_accuracy_on_generated_pair():
    params = BRParams(256, 8, 64, 4)
    rng = np.random.default_rng(40)
    pair = gen_br_pair(params, rng)
    oracle = new_oracle(pair, model=QueryModel.VERTEX)
    blues = [v for v in range(pair.params.v_count) if pair.coloring.is_blue(v)][:20]
    verdicts = [identify_color(oracle, v, 8, rng) for v in blues]
    assert sum(est.is_blue for est in verdicts) >= 18  # walk evidence is statistical
    reds = [v for v in range(pair.params.v_count) if pair.coloring.color(v) == 3][:10]
    for v in reds:
        assert identify_color(oracle, v, 8, rng).color == 3


# a walk's outcome with L = 3: no termination, a layer below 1, each layer
# of 1..L, a layer above L
SETTLE_LAYERS = 3
WALK_OUTCOMES = (None, 0, 1, 2, 3, 4)


def verdicts_left(verdict, settled, implied, left):
    """Every verdict that the walks left can still give; checks the settle rule on the way."""
    if left == 0:
        return {verdict(implied, SETTLE_LAYERS)}
    finals = set()
    for outcome in WALK_OUTCOMES:
        after = implied if outcome is None else implied + [outcome]
        finals |= verdicts_left(verdict, settled, after, left - 1)
    # settled exactly when no outcome of the walks left changes the verdict,
    # and then the walks done already give it
    assert settled(implied, left, SETTLE_LAYERS) == (len(finals) == 1), (implied, left, finals)
    if len(finals) == 1:
        assert finals == {verdict(implied, SETTLE_LAYERS)}, (implied, left)
    return finals


@pytest.mark.parametrize("verdict, settled", [(_sink_verdict, _sink_settled),
                                              (_wall_verdict, _wall_settled)])
def test_settle_rules_over_every_outcome_sequence(verdict, settled):
    for num_walks in range(1, 7):
        finals = verdicts_left(verdict, settled, [], num_walks)
    assert BLUE in finals and None in finals and set(range(1, SETTLE_LAYERS + 1)) <= finals


def test_identify_stops_once_blue_is_settled():
    # hand pair L = 8: blue 0's first hop decides a sink distance of 8 or 9,
    # implying layer 0 or -1, so the first walk already settles blue
    oracle = new_oracle(hand_pair_l8(), model=QueryModel.VERTEX)
    est = identify_color(oracle, 0, 8, np.random.default_rng(0), num_walks=50)
    assert est.is_blue and est.walks_used == 1
    red = identify_color(oracle, 24, 8, np.random.default_rng(0), num_walks=50)
    assert red.color == 3 and red.walks_used == 50  # red takes every walk


def test_identify_unknown_without_sinks():
    g = Digraph.from_lists([[1], [0]])
    oracle = new_oracle(g, model=QueryModel.VERTEX)
    est = identify_color(oracle, 0, 4, np.random.default_rng(0))
    assert est.is_unknown


# -- blue path growth -----------------------------------------------------------


def test_path_extension_closes_cycles_at_linear_rate():
    # The chance that extending a blue path of length k closes a cycle is
    # at least k over the blue target pool.  Grow hidden-guided paths and
    # compare closure counts against that accumulated lower bound.
    params = BRParams(4096, 4, 2048, 4)
    rng = np.random.default_rng(70)
    pool = 2 * params.n_blue - 1
    observed, predicted = 0, 0.0
    for _ in range(30):
        pair = gen_br_pair(params, rng)
        col = pair.coloring
        oracle = new_oracle(pair, model=QueryModel.VERTEX)
        blues = np.flatnonzero(col.layer_by_vertex == BLUE)
        path = [int(rng.choice(blues))]
        on_path = set(path)
        for _ in range(400):
            answer = oracle.query_vertex(path[-1])
            predicted += (len(on_path) - 1) / pool
            if any(c in on_path for c in answer):
                observed += 1
            fresh_blue = [c for c in answer if col.is_blue(c) and c not in on_path]
            if not fresh_blue or len(path) >= 256:
                path = [int(rng.choice(blues))]
                on_path = set(path)
            else:
                nxt = int(rng.choice(fresh_blue))
                path.append(nxt)
                on_path.add(nxt)
    assert predicted > 15
    assert observed >= 0.5 * predicted


# -- full pipeline, moderate sizes ----------------------------------------------


def test_algorithm1_finds_verified_cycles():
    params = BRParams(1024, 4, 512, 4)
    rng = np.random.default_rng(41)
    for _ in range(5):
        pair = gen_br_pair(params, rng)
        oracle = new_oracle(pair, model=QueryModel.VERTEX)
        out = run_algorithm1(oracle, pair.params, rng)
        assert out.success
        assert verify_cycle(pair.graph, out.cycle)
        assert out.queries_used == oracle.vertex_query_count
        assert out.queries_used <= 100 * params.layers * int(params.n_blue**0.5 + 1)


def test_algorithm1_respects_budget():
    params = BRParams(1024, 4, 512, 4)
    rng = np.random.default_rng(43)
    pair = gen_br_pair(params, rng)
    oracle = new_oracle(pair, model=QueryModel.VERTEX)
    out = run_algorithm1(oracle, pair.params, rng, budget=50)
    assert out.queries_used <= 50


def test_algorithm1_stops_seeding_when_no_seed_can_start_a_path():
    # at d=2 this instance has every vertex queried, and every blue one
    # exhausted, long before the budget; the seed search must then stop
    # instead of drawing seeds that cannot start a path until the step cap
    rng = np.random.default_rng(2008)
    pair = gen_br_pair(auto_params(4096, 2), rng)
    oracle = new_oracle(pair, model=QueryModel.VERTEX)
    out = run_algorithm1(oracle, pair.params, rng)
    assert not out.success
    assert out.queries_used == oracle.vertex_query_count == pair.graph.v_count == 12288
    assert out.aux["seeds_tested"] < 200_000


# -- walls ------------------------------------------------------------------------


def test_wall_depth_zero_is_origin():
    oracle = new_oracle(hand_pair_l8(), model=QueryModel.VERTEX)
    wall = build_wall(oracle, 16, 0)
    assert wall.members == frozenset({16})
    assert wall.origin == 16


def test_wall_from_sink_fails():
    oracle = new_oracle(hand_pair_l8(), model=QueryModel.VERTEX)
    assert build_wall(oracle, 44, 2) is None


def test_wall_covers_most_of_target_layer():
    # depth-4 fan-out from red_1 at d^4 = W lands in layer 5 and covers
    # more than half of it
    params = BRParams(1024, 8, 256, 4)
    rng = np.random.default_rng(71)
    for _ in range(20):
        pair = gen_br_pair(params, rng)
        lay = pair.coloring.layer_by_vertex
        v = int(rng.choice(np.flatnonzero(lay == 1)))
        oracle = new_oracle(pair, model=QueryModel.VERTEX)
        wall = build_wall(oracle, v, 4)
        layer5 = set(np.flatnonzero(lay == 5).tolist())
        assert wall.members <= layer5
        assert len(wall.members) >= 0.5 * params.width


def test_wall_membership_shortcut():
    pair = hand_pair_l8()
    oracle = new_oracle(pair, model=QueryModel.VERTEX)
    wall = build_wall(oracle, 16, 2, layer_hint=1)
    member = next(iter(wall.members))
    member_layer = {m: wall.layer_estimate for m in wall.members}
    est = wall_identify(oracle, member, member_layer, 8, np.random.default_rng(0))
    assert est.color == wall.layer_estimate
    assert est.walks_used == 0


def test_algorithm2_finds_verified_cycles():
    params = BRParams(4096, 8, 1024, 4)
    rng = np.random.default_rng(42)
    for _ in range(3):
        pair = gen_br_pair(params, rng)
        oracle = new_oracle(pair, model=QueryModel.VERTEX)
        out = run_algorithm2(oracle, pair.params, rng)
        assert out.success
        assert verify_cycle(pair.graph, out.cycle)
        assert out.queries_used == oracle.vertex_query_count
        assert out.aux["stage1_queries"] > 0
        assert out.aux["stage2_queries"] > 0
        assert out.aux["stage1_queries"] + out.aux["stage2_queries"] == out.queries_used


def test_algorithm2_stage1_attempts_count_against_the_step_cap(monkeypatch):
    # at N = 64, d = 8 (L = 2, wall depth 2) every red start is doomed, so
    # no wall is built; with every vertex queried first nothing is charged,
    # and only the step cap (40 x budget + 200 x V) can end stage 1 before
    # its 30 x num_walls + 60 attempts
    rng = np.random.default_rng(5)
    pair = gen_br_pair(auto_params(64, 8), rng)
    oracle = new_oracle(pair, model=QueryModel.VERTEX)
    for v in range(pair.graph.v_count):
        oracle.query_vertex(v)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return identify_color(*args, **kwargs)

    monkeypatch.setattr(finders, "identify_color", counted)
    out = run_algorithm2(oracle, pair.params, rng, num_walls=10**4, budget=1)
    assert out.queries_used == 0
    assert out.aux["walls_built"] == 0
    assert len(calls) <= 40 * 1 + 200 * pair.graph.v_count


# -- breadth-first heuristic ------------------------------------------------------


def test_bfs_red_start_finds_nothing():
    # seed 1 makes the single repetition start inside the red region,
    # whose out-cone is acyclic and only 13 vertices deep here
    pair = gen_br_pair(BRParams(64, 4, 32, 3), np.random.default_rng(80))
    probe = np.random.default_rng(1)
    assert pair.coloring.color(int(probe.integers(pair.params.v_count))) >= 1
    oracle = new_oracle(pair, model=QueryModel.VERTEX)
    out = run_bfs_heuristic(oracle, 1, np.random.default_rng(1), explore_budget=500)
    assert not out.success
    assert out.queries_used <= 13


def test_bfs_finds_cycles_with_repetitions():
    rng = np.random.default_rng(81)
    wins = 0
    for _ in range(3):
        pair = gen_br_pair(BRParams(256, 4, 128, 3), rng)
        oracle = new_oracle(pair, model=QueryModel.VERTEX)
        out = run_bfs_heuristic(oracle, 8, rng)
        if out.success:
            assert verify_cycle(pair.graph, out.cycle)
            wins += 1
        assert out.queries_used == oracle.vertex_query_count
    assert wins >= 1


# -- oracle boundary ----------------------------------------------------------------


def test_finders_never_read_the_hidden_graph(monkeypatch):
    pair = gen_br_pair(BRParams(256, 4, 128, 3), np.random.default_rng(90))
    simple = gen_br_simple(400, 3, np.random.default_rng(91))

    def hidden(self):
        raise AssertionError("a finder read the hidden graph")

    monkeypatch.setattr(Oracle, "hidden_graph", property(hidden))
    rng = np.random.default_rng(92)

    def vertex_oracle(graph_or_pair):
        return new_oracle(graph_or_pair, model=QueryModel.VERTEX)

    runs = [
        (simple, run_random_walk_finder(vertex_oracle(simple), 400, rng)),
        (simple, run_birthday_sampler(
            new_oracle(simple, model=QueryModel.ADJ_LIST), 400, rng)),
        (pair.graph, run_algorithm1(vertex_oracle(pair), pair.params, rng)),
        (pair.graph, run_algorithm2(vertex_oracle(pair), pair.params, rng)),
        (pair.graph, run_bfs_heuristic(vertex_oracle(pair), 4, rng)),
    ]
    for graph, out in runs:
        assert out.queries_used > 0
        assert out.cycle is None or verify_cycle(graph, out.cycle)


def test_finders_take_rng_by_position_or_keyword():
    pair = gen_br_pair(BRParams(64, 4, 32, 3), np.random.default_rng(8))
    runs = []
    for by_keyword in (False, True):
        oracle = new_oracle(pair, QueryModel.VERTEX)
        rng = np.random.default_rng(9)
        if by_keyword:
            out = run_algorithm1(oracle, pair.params, rng=rng, budget=300)
        else:
            out = run_algorithm1(oracle, pair.params, rng, budget=300)
        runs.append((out, oracle.history, rng.bit_generator.state))
    assert runs[0] == runs[1]
    with pytest.raises(TypeError):
        run_algorithm1(new_oracle(pair, QueryModel.VERTEX), pair.params, budget=300)
