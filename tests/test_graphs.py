"""Generator and validation tests for the layered instance family."""

import numpy as np
import pytest

from cyclelab import (
    BLUE,
    BRPair,
    BRParams,
    Coloring,
    Digraph,
    InvalidParams,
    NoValidLayering,
    OddVertexCount,
    QueryModel,
    auto_params,
    color_token,
    gen_br_pair,
    gen_br_simple,
    gen_coloring,
    new_oracle,
    run_random_walk_finder,
    validate_br,
)


def test_auto_params_small():
    # Search starts at round((2N)^(2/9)) and widens to the nearest even
    # divisor of 2N with width >= 2.  For N=4 that start is round(8^(2/9)) = 2,
    # which already divides 8.
    p = auto_params(4)
    assert (p.layers, p.width) == (2, 4)

    # Divisors of 6 are {1, 2, 3, 6}; L=2 is the only usable even one.
    p = auto_params(3)
    assert (p.layers, p.width) == (2, 3)

    # (2 * 2^17)^(2/9) = 2^(18*2/9) = 16 exactly, no search needed.
    p = auto_params(2**17, 8)
    assert (p.layers, p.width) == (16, 16384)
    assert p.outdeg == 8


def test_auto_params_rejects_degenerate_order():
    with pytest.raises(NoValidLayering):
        auto_params(1)


def test_auto_params_matches_bruteforce():
    # Reference: every even L in 2..2N, nearest to (2N)^(2/9), smaller L on a tie.
    for n in range(1, 3001):
        two_n = 2 * n
        target = two_n ** (2.0 / 9.0)
        even_divisors = [l for l in range(2, two_n + 1, 2) if two_n % l == 0]
        for d in (2, 3, 8):
            fits = [l for l in even_divisors if two_n // l >= max(2, d)]
            best = min(fits, key=lambda l: (abs(l - target), l), default=None)
            if best is None or not target / 4.0 <= best <= target * 4.0:
                with pytest.raises(NoValidLayering):
                    auto_params(n, d)
                continue
            p = auto_params(n, d)
            assert (p.layers, p.width, p.outdeg) == (best, two_n // best, d), (n, d)


def test_params_validation():
    with pytest.raises(InvalidParams):
        BRParams(4, 3, 2, 2)  # odd layer count
    with pytest.raises(InvalidParams):
        BRParams(4, 2, 3, 2)  # L*W != 2N
    with pytest.raises(InvalidParams):
        BRParams(4, 2, 4, 1)  # outdegree below 2
    with pytest.raises(InvalidParams):
        BRParams(4, 2, 4, 5)  # outdegree exceeds red layer width
    with pytest.raises(InvalidParams):
        BRParams(0, 2, 2, 2)

    p = BRParams(4, 4, 2, 2)
    assert p.v_count == 12
    assert p.epoch_cap == 2


def test_generated_shape_n4():
    pair = gen_br_pair(BRParams(4, 4, 2, 2), np.random.default_rng(7))
    g = pair.graph
    assert g.v_count == 12
    degs = [g.out_degree(v) for v in range(12)]
    assert degs.count(2) == 10  # 4 blue + 6 red in layers 1..3
    assert degs.count(0) == 2  # layer 4


def test_generation_is_deterministic():
    params = BRParams(16, 4, 8, 3)
    a = gen_br_pair(params, np.random.default_rng(123))
    b = gen_br_pair(params, np.random.default_rng(123))
    assert np.array_equal(a.coloring.layer_by_vertex, b.coloring.layer_by_vertex)
    for left, right in zip(a.graph.edge_arrays(), b.graph.edge_arrays()):
        assert np.array_equal(left, right)


def test_generation_terminates_when_distinct_rows_are_rare():
    # 63 iid draws from the blue pool of 127 are distinct with probability
    # about 7e-9, so rejection sampling would not finish
    pair = gen_br_pair(BRParams(64, 2, 64, 63), np.random.default_rng(0))
    assert validate_br(pair) == []


def test_out_list_entries_are_python_ints():
    pair = gen_br_pair(BRParams(16, 4, 8, 3), np.random.default_rng(5))
    for v in range(pair.params.v_count):
        assert all(type(x) is int for x in pair.graph.out_list(v))


def test_instances_do_not_freeze_the_callers_arrays():
    params = BRParams(16, 4, 8, 3)
    layers = gen_coloring(params, np.random.default_rng(5)).layer_by_vertex.copy()
    coloring = Coloring(params, layers)
    offsets = np.array([0, 1, 2], dtype=np.int64)
    targets = np.array([1, 0], dtype=np.int64)
    graph = Digraph(offsets, targets)
    for mine in (layers, offsets, targets):
        assert mine.flags.writeable
    for stored in (coloring.layer_by_vertex, graph._offsets, graph._targets):
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0] = stored[0]


def test_sinks_and_blue_target_range():
    params = BRParams(32, 8, 8, 4)
    rng = np.random.default_rng(11)
    for _ in range(5):
        pair = gen_br_pair(params, rng)
        lay = pair.coloring.layer_by_vertex
        for v in range(pair.params.v_count):
            row = pair.graph.out_list(v)
            if lay[v] == params.layers:
                assert row == ()
            elif lay[v] == BLUE:
                # blue targets stay inside blue plus the top half of the
                # red layers, and never include the queried vertex
                assert len(row) == params.outdeg == len(set(row))
                assert v not in row
                assert all(lay[t] <= params.layers // 2 for t in row)
            else:
                assert len(row) == params.outdeg == len(set(row))
                assert all(lay[t] == lay[v] + 1 for t in row)


def test_validate_clean_on_grid():
    rng = np.random.default_rng(2)
    for n in (4, 16, 64):
        for layers in range(2, 2 * n + 1, 2):
            if (2 * n) % layers or (2 * n) // layers < 2:
                continue
            width = 2 * n // layers
            pair = gen_br_pair(BRParams(n, layers, width, 2), rng)
            assert validate_br(pair) == []


def test_validate_flags_layer_skip():
    pair = gen_br_pair(BRParams(4, 4, 2, 2), np.random.default_rng(3))
    lay = pair.coloring.layer_by_vertex
    src = next(v for v in range(12) if lay[v] == 2)
    dst = next(v for v in range(12) if lay[v] == 4)
    rows = [list(pair.graph.out_list(u)) for u in range(12)]
    rows[src][0] = dst
    bad = BRPair(pair.params, pair.coloring, Digraph.from_lists(rows))
    violations = validate_br(bad)
    assert len(violations) == 1
    assert f"{src}->{dst}" in violations[0]


def test_validate_flags_blue_sink():
    pair = gen_br_pair(BRParams(4, 4, 2, 2), np.random.default_rng(3))
    blue = next(v for v in range(12) if pair.coloring.is_blue(v))
    rows = [list(pair.graph.out_list(u)) for u in range(12)]
    rows[blue] = []
    bad = BRPair(pair.params, pair.coloring, Digraph.from_lists(rows))
    violations = validate_br(bad)
    assert any("non-red_L sink" in v for v in violations)


def test_validate_flags_mixed_degree_lists():
    # One list of length d+1 next to a full list with a repeat and a
    # self-loop: the rows are no longer uniform, and both faults must show.
    pair = gen_br_pair(BRParams(4, 4, 2, 2), np.random.default_rng(3))
    blues = [v for v in range(12) if pair.coloring.is_blue(v)]
    long_v, loop_v = blues[0], blues[1]
    rows = [list(pair.graph.out_list(u)) for u in range(12)]
    rows[long_v].append(next(b for b in blues if b != long_v and b not in rows[long_v]))
    rows[loop_v] = [loop_v, loop_v]
    bad = BRPair(pair.params, pair.coloring, Digraph.from_lists(rows))
    assert sorted(validate_br(bad)) == sorted([
        f"vertex {long_v}: out-degree 3 not in {{0, 2}}",
        f"vertex {loop_v}: repeated entry in adjacency list",
        f"vertex {loop_v}: self-loop",
    ])


def test_layer_marginals_uniform():
    # Vertex 0 lands in each class with the hypergeometric marginal:
    # blue 4/12, each red layer 2/12.  3 sigma at 10^4 draws.
    params = BRParams(4, 4, 2, 2)
    trials = 10_000
    counts = np.zeros(5, dtype=int)
    for seed in range(trials):
        lay = gen_coloring(params, np.random.default_rng(seed)).layer_by_vertex
        counts[lay[0]] += 1
    freq = counts / trials
    assert abs(freq[0] - 1 / 3) < 0.02
    for layer in range(1, 5):
        p = 1 / 6
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(freq[layer] - p) < 3 * sigma + 1e-12


def test_br_simple_two_vertices_force_cycle():
    g = gen_br_simple(2, 1, np.random.default_rng(0))
    assert sorted(g.edges()) == [(0, 1), (1, 0)]


def test_br_simple_degrees():
    g = gen_br_simple(50, 3, np.random.default_rng(5))
    indeg = np.zeros(50, dtype=int)
    for u in range(50):
        row = g.out_list(u)
        assert len(row) == 3  # one slot per matching, duplicates kept
        for v in row:
            indeg[v] += 1
    assert np.all(indeg == 3)


def test_br_simple_rejects_odd_order():
    with pytest.raises(OddVertexCount):
        gen_br_simple(3, 1, np.random.default_rng(0))


def test_trail_collision_at_birthday_scale():
    # With 10 * sqrt(n) steps the walk's trail should self-intersect in
    # nearly every trial.
    n, trials, budget = 10_000, 200, 1000
    rng = np.random.default_rng(44)
    hits = 0
    for _ in range(trials):
        g = gen_br_simple(n, 3, rng)
        oracle = new_oracle(g, model=QueryModel.VERTEX)
        out = run_random_walk_finder(oracle, budget, rng)
        hits += out.success
    assert hits >= 0.95 * trials


def test_color_tokens_round_trip():
    assert color_token(BLUE) == "b"
    assert color_token(4) == "r4"
