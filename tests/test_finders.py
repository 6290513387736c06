"""Cycle finder behavior: walks, sampling, color identification, walls."""

import numpy as np
import pytest

from cyclelab import (
    BLUE,
    BRPair,
    BRParams,
    ColorEstimate,
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
from cyclelab import detect_cycle, finders
from cyclelab.finders import _sink_verdict

from test_finders_properties import blue_is_settled
from test_oracle import hand_pair_l8


class ConstantDraws:
    """A generator stand-in whose every draw is one value, capped at the bound - 1.

    Not a PCG64 Generator, so a finder draws from it one ``integers`` call
    at a time.
    """

    def __init__(self, value):
        self.value = value

    def integers(self, k):
        return min(self.value, k - 1)


# a directed 2-cycle and a directed path, each of out-degree at most 1
TWO_CYCLE = Digraph.from_lists([[1], [0]])
PATH_100 = Digraph.from_lists([[v + 1] for v in range(99)] + [[]])


def test_outcome_success_property():
    assert FinderOutcome(cycle=[0, 1], queries_used=2, stop="cycle", aux={}).success
    assert not FinderOutcome(cycle=None, queries_used=2, stop="budget", aux={}).success


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


def test_walk_stop_reasons():
    # cycle; budget, charged along a long path; step cap, once every sink is known
    runs = [
        (TWO_CYCLE, 4, "cycle"),
        (PATH_100, 3, "budget"),
        (Digraph.from_lists([[], [], []]), 4, "step_cap"),
    ]
    for graph, max_queries, stop in runs:
        oracle = new_oracle(graph, model=QueryModel.VERTEX)
        out = run_random_walk_finder(oracle, max_queries, np.random.default_rng(0))
        assert out.stop == stop
        assert out.success == (stop == "cycle")
        assert (out.queries_used == max_queries) == (stop == "budget")


# -- birthday sampler -------------------------------------------------------------


def test_birthday_stop_reasons():
    # cycle; every cell of a 3-vertex path sampled; budget; and the step cap,
    # when every draw names the same cell, so no draw after the first charges
    dag = Digraph.from_lists([[1], [2], []])
    runs = [
        (TWO_CYCLE, 10, np.random.default_rng(0), "cycle", 2),
        (dag, 10, np.random.default_rng(0), "exhausted", 3),
        (PATH_100, 5, np.random.default_rng(0), "budget", 5),
        (dag, 10, ConstantDraws(0), "step_cap", 1),
    ]
    for graph, max_queries, rng, stop, queries in runs:
        oracle = new_oracle(graph, model=QueryModel.ADJ_LIST)
        out = run_birthday_sampler(oracle, max_queries, rng)
        assert (out.stop, out.queries_used) == (stop, queries)
        assert out.success == (stop == "cycle")


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


def verdicts_left(implied, left):
    """Every verdict that the walks left can still give; checks the settle rule on the way."""
    if left == 0:
        return {_sink_verdict(implied, SETTLE_LAYERS)}
    finals = set()
    for outcome in WALK_OUTCOMES:
        after = implied if outcome is None else implied + [outcome]
        finals |= verdicts_left(after, left - 1)
    # settled exactly when no outcome of the walks left changes the verdict,
    # and then the walks done already give it
    assert blue_is_settled(implied, SETTLE_LAYERS) == (len(finals) == 1), (implied, left, finals)
    if len(finals) == 1:
        assert finals == {_sink_verdict(implied, SETTLE_LAYERS)}, (implied, left)
    return finals


# the one verdict rule, and the settle rule of the walk loop, whose walks
# test_walk_loop_matches_reference pins to the reference's draw for draw
def test_settle_rule_over_every_outcome_sequence(monkeypatch):
    for num_walks in range(1, 7):
        finals = verdicts_left([], num_walks)
    assert BLUE in finals and None in finals and set(range(1, SETTLE_LAYERS + 1)) <= finals
    # identify_color and wall_identify give this verdict on whatever layers
    # the walk loop's walks imply
    oracle = new_oracle(hand_pair_l8(), model=QueryModel.VERTEX)
    for implied in ([], [3], [3, 3], [3, 2], [0], [9], [3, 3, 3, 3, 3, 4]):
        def scripted(*args, implied=implied):
            return list(implied), len(implied)

        monkeypatch.setattr(finders, "_implied_layers", scripted)
        for est in (identify_color(oracle, 0, 8, np.random.default_rng(0)),
                    wall_identify(oracle, 0, {5: 2}, 8, np.random.default_rng(0))):
            assert est == ColorEstimate(_sink_verdict(implied, 8), len(implied)), implied


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


def test_red_verdict_labels_known_descendants_and_later_walks_stop_on_labels():
    # hand pair L = 8: one walk from 24 (layer 3) judges it red and queries
    # one vertex a layer down to the sink; the sibling each query names,
    # such as 28, is known but never queried
    pair = hand_pair_l8()
    oracle = new_oracle(pair, model=QueryModel.VERTEX)
    out = oracle.kg
    labels: dict[int, int] = {}
    est = wall_identify(oracle, 24, labels, 8, np.random.default_rng(0), num_walks=1)
    assert est == ColorEstimate(3, 1)

    def below(v):  # every known descendant of v, named-only children included
        depth = {v: 0}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for c in out.get(u, ()):
                depth.setdefault(c, depth[u] + 1)
                frontier.append(c)
        return depth

    # the walk reached its sink in 5 steps, so its last L/2 = 4 steps ran
    # down layers 4..8: the vertex it stepped to, 29 (layer 4), and every
    # known vertex below it are labelled, while 24 itself (layer 3, above
    # the bottom half) and 28 are not
    assert labels == {u: 4 + k for u, k in below(29).items()}
    assert 24 not in labels and 28 not in labels and 28 not in out
    answers, queries = dict(out), oracle.vertex_query_count
    finders._learn_layers(out, labels, 24, 3, 8)
    assert out == answers and oracle.vertex_query_count == queries
    assert labels == {u: 3 + k for u, k in below(24).items()}
    assert all(labels[u] == pair.coloring.color(u) for u in labels)
    # 26 shares 24's children: every walk ends on 28 or 29 after one step,
    # implying 4 - 1 = 3, and only 26 itself is queried
    est = wall_identify(oracle, 26, labels, 8, np.random.default_rng(1))
    assert est == ColorEstimate(3, finders.NUM_WALKS)
    assert oracle.vertex_query_count == queries + 1 and 28 not in out
    # a labelled start gets its label with no walk, no query and no draw
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    assert wall_identify(oracle, 28, labels, 8, rng) == ColorEstimate(4, 0)
    assert oracle.vertex_query_count == queries + 1 and rng.bit_generator.state == state
    # labels stop at L: blue 0 wrongly judged red at layer 8 labels no child
    oracle.query_vertex(0)
    capped: dict[int, int] = {}
    finders._learn_layers(out, capped, 0, 8, 8)
    assert capped == {0: 8}


def test_a_sink_walk_from_the_bottom_half_ends_the_test_with_its_exact_layer():
    # hand pair L = 8: 36 (layer 6) reaches a sink of layer 8 in 2 <= L/2
    # steps, so its first walk labels 36 itself with 6 and the test ends
    # there, where a red verdict used to take every walk
    pair = hand_pair_l8()
    oracle = new_oracle(pair, model=QueryModel.VERTEX)
    labels: dict[int, int] = {}
    assert wall_identify(oracle, 36, labels, 8, np.random.default_rng(0)) == ColorEstimate(6, 1)
    assert oracle.vertex_query_count == 3
    # 36 and its two children, and the two sinks its queried child names
    (child,) = (c for c in (40, 41) if c in oracle.kg)
    sinks = oracle.kg[child]
    assert labels == {36: 6, 40: 7, 41: 7, sinks[0]: 8, sinks[1]: 8}
    assert all(labels[u] == pair.coloring.color(u) for u in labels)
    # identify_color learns into a map of its own: the same one-walk stop,
    # and a sink start gets L from its first walk
    for v, layer in ((37, 6), (47, 8), (44, 8)):
        est = identify_color(oracle, v, 8, np.random.default_rng(1), num_walks=50)
        assert est == ColorEstimate(layer, 1)
    # a start above the bottom half is never labelled by its own walks: a
    # red verdict from layer 3 still takes every walk, though its later
    # walks may stop on the labels that its first one taught
    est = identify_color(oracle, 25, 8, np.random.default_rng(2))
    assert est == ColorEstimate(3, finders.NUM_WALKS)


def test_colour_test_on_constant_draws_terminates():
    # every draw one value: the first walk's offset is that value, capped at
    # d - 1, and walk k leaves the start on child (offset + k) mod d with no
    # draw of its own, so the test ends where a rule that redrew until the
    # first children differ would loop for ever.  From layer 1 of 8 every
    # walk ends at a sink, so the red verdict takes every walk, and the first
    # d of them query each of the start's children
    pair = gen_br_pair(BRParams(256, 8, 64, 4), np.random.default_rng(33))
    red = int(pair.coloring.layer_vertices(1)[0])
    blue = next(v for v in range(pair.params.v_count) if pair.coloring.is_blue(v))
    for value in (0, 2, 3, 9):
        oracle = new_oracle(pair, model=QueryModel.VERTEX)
        est = identify_color(oracle, red, 8, ConstantDraws(value), num_walks=6)
        assert est == ColorEstimate(1, 6)
        assert set(pair.graph.out_list(red)) <= oracle.kg.keys()
        est = wall_identify(oracle, blue, {}, 8, ConstantDraws(value), num_walks=6)
        assert est.walks_used <= 6


def test_one_walk_tests_draw_what_shared_first_steps_drew():
    # with one walk a test there is no later walk to place, and the offset is
    # that walk's own first draw: verdicts, walk counts and the generator's
    # state are frozen here from the rule in which each walk drew its first
    # step, as one test after another and as a whole alg1 run
    params = BRParams(64, 8, 16, 4)
    pair = gen_br_pair(params, np.random.default_rng(31))
    oracle = new_oracle(pair, model=QueryModel.VERTEX)
    rng = np.random.default_rng(32)
    labels: dict[int, int] = {}
    got = []
    for v in range(0, params.v_count, 8):
        est = wall_identify(oracle, v, labels, params.layers, rng, num_walks=1)
        got.append((est.color, est.walks_used))
    assert got == [
        (1, 1), (4, 1), (3, 1), (0, 1), (3, 1), (6, 0), (1, 1), (1, 1), (3, 1), (4, 1),
        (7, 0), (8, 0), (2, 1), (0, 1), (0, 1), (4, 1), (5, 0), (6, 0), (3, 1), (5, 1),
        (2, 1), (4, 1), (1, 1), (7, 0),
    ]
    assert (oracle.vertex_query_count, len(labels)) == (56, 42)
    assert rng.bit_generator.state == {
        "bit_generator": "PCG64",
        "state": {"state": 177488721926471963103171427147978392574,
                  "inc": 302235580631359622804948280511983440719},
        "has_uint32": 0, "uinteger": 2540218547,
    }
    params = auto_params(2048, 8)
    pair = gen_br_pair(params, np.random.default_rng(34))
    rng = np.random.default_rng(35)
    out = run_algorithm1(new_oracle(pair, model=QueryModel.VERTEX), params, rng, num_walks=1)
    assert (out.stop, out.queries_used, out.aux["walks"], out.aux["color_ids"]) == (
        "cycle", 221, 48, 50)
    assert rng.bit_generator.state == {
        "bit_generator": "PCG64",
        "state": {"state": 57625849399995435517794383486074377844,
                  "inc": 51899738388229508565838890383619209737},
        "has_uint32": 1, "uinteger": 1413163831,
    }


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


@pytest.mark.parametrize("finder", [run_algorithm1, run_algorithm2], ids=["alg1", "alg2"])
def test_layered_finder_stop_reasons(finder):
    def run(instance, rng, **kwargs):
        oracle = new_oracle(instance, model=QueryModel.VERTEX)
        return finder(oracle, instance.params, rng, **kwargs)

    pair = gen_br_pair(BRParams(1024, 4, 512, 4), np.random.default_rng(46))
    out = run(pair, np.random.default_rng(0))
    assert (out.stop, out.success) == ("cycle", True)
    assert verify_cycle(pair.graph, out.cycle)
    out = run(pair, np.random.default_rng(0), budget=3)
    assert (out.stop, out.success, out.queries_used) == ("budget", False, 3)
    # every draw names red vertex 20 (layer 2): once its verdict is known the
    # seed search charges nothing, and only the step cap ends it
    hand = hand_pair_l8()
    out = run(hand, ConstantDraws(20), budget=10)
    assert (out.stop, out.success) == ("step_cap", False)
    assert out.queries_used < 10
    # every vertex a sink: every verdict is red, at layer L, so no vertex can seed a path
    sinks = BRPair(hand.params, hand.coloring, Digraph.from_lists([[]] * hand.graph.v_count))
    out = run(sinks, np.random.default_rng(0))
    assert (out.stop, out.success, out.queries_used) == ("no_seed", False, hand.graph.v_count)


@pytest.mark.parametrize("finder", [run_algorithm1, run_algorithm2], ids=["alg1", "alg2"])
def test_colour_tests_are_counted_by_verdict(finder, monkeypatch):
    # colour ids, walks and charged queries, split by verdict: the ids and
    # walks sum to the totals, and the queries to at most the whole run's; a
    # budget cut leaves unknown verdicts.  A start labelled before its test
    # gets its label with no walk, and each such test is one wall hit
    hits = []  # (label before the test, estimate) of each test on a labelled start
    tests = []  # (meter at the start, whether the test can be cut, its kind) of each test

    def spied(oracle, v, member_layer, *args, **kwargs):
        label = member_layer.get(v)
        meter = oracle.vertex_query_count
        fresh = v not in oracle.kg and label is None
        labels = set(member_layer) if fresh else ()
        est = wall_identify(oracle, v, member_layer, *args, **kwargs)
        if label is not None:
            hits.append((label, est))
        children = oracle.kg[v] if fresh else ()
        # charged at its start, a non-sink whose children all lack a label
        cuttable = bool(children) and labels.isdisjoint(children)
        kind = ("hit" if label is not None else "blue" if est.is_blue
                else "red" if est.is_red else None)
        tests.append((meter, cuttable, kind))
        return est

    monkeypatch.setattr(finders, "wall_identify", spied)
    verdicts = ("blue", "red", "unknown")

    def run(seed, budget):
        hits.clear()
        tests.clear()
        rng = np.random.default_rng(seed)
        pair = gen_br_pair(BRParams(1024, 4, 512, 4), rng)
        out = finder(new_oracle(pair, model=QueryModel.VERTEX), pair.params, rng, budget=budget)
        aux = out.aux
        assert sum(aux[f"{v}_color_ids"] for v in verdicts) == aux["color_ids"]
        assert sum(aux[f"{v}_walks"] for v in verdicts) == aux["walks"]
        assert sum(aux[f"{v}_queries"] for v in verdicts) <= out.queries_used
        assert aux["wall_hits"] <= aux["red_color_ids"]  # a labelled start counts as red
        assert aux["wall_hits"] == len(hits) > 0
        assert all(est == ColorEstimate(label, 0) for label, est in hits)
        assert aux["blue_color_ids"] > 0 and aux["red_color_ids"] > 0
        return out

    run(50, None)
    # A budget only stops a finder, so a run on the same seed with budget
    # m + 1 repeats this one up to a test that starts at meter reading m.
    # If that start was neither cached nor labelled and is no sink, its
    # query spends the last of the budget and the first walk's first step
    # lands on an unlabelled child: the walk ends there, and no other walk
    # starts, so the test is cut with no walk terminated.  The cut falls
    # after a wall hit, a blue and a red verdict, which the run must count.
    seen = set()
    for meter, cuttable, kind in tests:
        if cuttable and {"hit", "blue", "red"} <= seen:
            break
        seen.add(kind)
    else:
        pytest.fail("no test to cut")
    cut = run(50, meter + 1)
    assert (cut.stop, cut.queries_used) == ("budget", meter + 1)
    assert cut.aux["unknown_color_ids"] >= 1
    assert tests[-1][1:] == (True, None)  # the cut test, unknown
    run(50, 400)  # a budget that falls wherever it falls keeps the counts whole


def test_algorithm1_returns_the_first_cycle_a_head_check_finds(monkeypatch):
    # every head query is followed by one check, counted in aux, unless the
    # head is met again at the meter reading of its last check, where the
    # check is skipped; the head queries are one per append, one per
    # backtrack, and the last, whose check finds a cycle.  The run ends on
    # the first check that finds one, with that very cycle.  At d = 4 these
    # paths rarely backtrack; at d = 2 dead ends are common, and so are heads
    # met again after a backtrack, and a run may end with no seed left, after
    # a backtrack and with no last head query.
    events = []  # "head" for each head query, "check" for each cycle check
    found = []
    testing = []  # non-empty while a colour test runs, whose walks query too

    def spied(*args, **kwargs):
        events.append("check")
        found.append(detect_cycle(*args, **kwargs))
        return found[-1]

    def spied_test(*args, **kwargs):
        testing.append(True)
        try:
            return wall_identify(*args, **kwargs)
        finally:
            testing.pop()

    monkeypatch.setattr(finders, "detect_cycle", spied)
    monkeypatch.setattr(finders, "wall_identify", spied_test)
    for params, seed in ((BRParams(1024, 4, 512, 4), 45), (auto_params(512, 2), 46)):
        rng = np.random.default_rng(seed)
        backtracks = skips = cycles = 0
        for _ in range(5):
            events.clear()
            found.clear()
            pair = gen_br_pair(params, rng)
            oracle = new_oracle(pair, model=QueryModel.VERTEX)

            def head_query(u, query=oracle.query_vertex):
                if not testing:
                    events.append("head")
                return query(u)

            oracle.query_vertex = head_query
            out = run_algorithm1(oracle, pair.params, rng)
            cycle = out.stop == "cycle"
            assert out.success == cycle and out.stop in ("cycle", "no_seed")
            if cycle:
                assert out.cycle is found[-1] and events[-2:] == ["head", "check"]
            else:
                assert found[-1] is None
            assert found[:-1] == [None] * (len(found) - 1)
            assert out.aux["cycle_checks"] == len(found) == events.count("check")
            # a head query that no check follows was skipped
            skipped = sum(e == "head" and after != "check"
                          for e, after in zip(events, events[1:] + ["head"]))
            assert len(found) + skipped == out.aux["appends"] + out.aux["backtracks"] + cycle
            backtracks += out.aux["backtracks"]
            skips += skipped
            cycles += cycle
        print(f"first-cycle runs at d={params.outdeg}: {cycles}/5 cycles, "
              f"{backtracks} backtracks, {skips} skipped checks")
        if params.outdeg == 2:
            assert cycles > 0 and backtracks > 0 and skips > 0
        else:
            assert cycles == 5


def test_algorithm1_checks_no_head_twice_at_one_meter_reading(monkeypatch):
    # a head the path backtracks to is checked again only once a query was
    # charged since its last check; before that the knowledge graph and the
    # labels it skips are what they were, so the check could only repeat
    # its None.  At d = 2 dead ends are common, and so are such returns.
    checks = []

    def spied(kg, u, answer, **kwargs):
        checks.append((u, len(kg)))  # one entry of kg per charged query
        return detect_cycle(kg, u, answer, **kwargs)

    monkeypatch.setattr(finders, "detect_cycle", spied)
    rng = np.random.default_rng(46)
    backtracks = 0
    for _ in range(5):
        checks.clear()
        pair = gen_br_pair(auto_params(512, 2), rng)
        oracle = new_oracle(pair, model=QueryModel.VERTEX)
        out = run_algorithm1(oracle, pair.params, rng)
        assert len(set(checks)) == len(checks) == out.aux["cycle_checks"]
        backtracks += out.aux["backtracks"]
    assert backtracks > 0


def test_algorithm1_respects_budget():
    params = BRParams(1024, 4, 512, 4)
    rng = np.random.default_rng(43)
    pair = gen_br_pair(params, rng)
    oracle = new_oracle(pair, model=QueryModel.VERTEX)
    out = run_algorithm1(oracle, pair.params, rng, budget=50)
    assert out.queries_used <= 50


def test_algorithm1_stops_seeding_when_no_seed_can_start_a_path():
    # at d=2 this instance has every vertex judged, and every blue one
    # exhausted, long before the budget; the seed search must then stop
    # instead of drawing seeds that cannot start a path until the step cap.
    # A vertex with a learned layer is judged without a query, so not every
    # vertex is queried.
    rng = np.random.default_rng(2008)
    pair = gen_br_pair(auto_params(4096, 2), rng)
    oracle = new_oracle(pair, model=QueryModel.VERTEX)
    out = run_algorithm1(oracle, pair.params, rng)
    assert not out.success
    assert out.stop == "no_seed"
    assert out.aux["color_ids"] == pair.graph.v_count
    assert out.queries_used == oracle.vertex_query_count <= pair.graph.v_count
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
        # no wall stage, so no wall counters
        assert not {"walls_built", "wall_failures", "stage1_queries"} & out.aux.keys()


@pytest.mark.parametrize("n, d", [(64, 8), (512, 2)])
def test_algorithm2_skips_stage1_when_the_wall_depth_reaches_the_layer_count(monkeypatch, n, d):
    # floor(log_d W) >= L (L = 2, depth 2; L = 4, W = 256, depth 8): shapes
    # where even the old wall stage started no attempt.  alg2 is alg1 byte
    # for byte here too, and it builds no wall
    params = auto_params(n, d)
    pair = gen_br_pair(params, np.random.default_rng(n))
    walls = []
    monkeypatch.setattr(finders, "build_wall", lambda *a, **k: walls.append(a))
    runs = []
    for finder in (run_algorithm1, run_algorithm2):
        rng = np.random.default_rng(17)
        oracle = new_oracle(pair, model=QueryModel.VERTEX)
        out = finder(oracle, params, rng)
        runs.append((out, oracle.history, rng.bit_generator.state))
    assert runs[0] == runs[1]
    assert walls == []
    assert "stage1_queries" not in runs[1][0].aux


@pytest.mark.parametrize("shape, params, trials", [
    ("2^11, d=8", auto_params(2048, 8), 200),
    ("2^11, L=32, d=3", BRParams(2048, 32, 128, 3), 200),
    ("2^14, d=8", auto_params(16384, 8), 40),
])
@pytest.mark.parametrize("finder", [run_algorithm1, run_algorithm2], ids=["alg1", "alg2"])
def test_learned_layers_are_rarely_wrong(monkeypatch, finder, shape, params, trials):
    # a blue start judged red passes its mistake down to its known
    # descendants; on frozen seeds, at most 1% of the learned labels may be
    # wrong against the hidden colouring, for either finder, and every trial
    # finds a verified cycle
    maps = []

    def spied(*args, **kwargs):
        if not maps:
            maps.append(args[2])  # the layer map
        return wall_identify(*args, **kwargs)

    monkeypatch.setattr(finders, "wall_identify", spied)
    rng = np.random.default_rng(2111)
    wrong = labels = found = 0
    for _ in range(trials):
        maps.clear()
        pair = gen_br_pair(params, rng)
        out = finder(new_oracle(pair, model=QueryModel.VERTEX), pair.params, rng)
        found += out.success and verify_cycle(pair.graph, out.cycle)
        lay = pair.coloring.layer_by_vertex
        layer_map = maps[0]  # one layer map a trial, handed to every colour test
        labels += len(layer_map)
        wrong += sum(int(lay[u]) != layer for u, layer in layer_map.items())
    rate = wrong / labels
    print(f"{finder.__name__} learned labels at {shape}: {wrong}/{labels} wrong "
          f"({100 * rate:.2f}%, bound 1.00%, margin {100 * (0.01 - rate):.2f} points); "
          f"{found}/{trials} cycles")
    assert found == trials
    assert rate <= 0.01


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


def test_bfs_stop_reasons():
    # cycle; every repetition run; budget.  The step cap cannot bind: each
    # step explores a vertex, and the cap is 20 times what the repetitions
    # may explore.
    runs = [
        (TWO_CYCLE, {}, "cycle"),
        (Digraph.from_lists([[1], [2], []]), {}, "exhausted"),
        (PATH_100, {"max_queries": 3}, "budget"),
    ]
    for graph, kwargs, stop in runs:
        oracle = new_oracle(graph, model=QueryModel.VERTEX)
        out = run_bfs_heuristic(oracle, 2, np.random.default_rng(0), **kwargs)
        assert out.stop == stop
        assert out.success == (stop == "cycle")


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
