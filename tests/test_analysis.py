"""Feedback arc set oracles, run statistics, and coloring distributions."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cyclelab import (
    BLUE,
    BRParams,
    Digraph,
    QueryRecord,
    ancestor_count,
    epoch_stats,
    max_blue_path,
)

from colouring_law import (
    NotAForest,
    TreeKind,
    classify_trees,
    enumerate_conditional_colorings,
    is_good_partial,
    sample_naive_coloring,
)
from fas_reference import TooLarge, backedge_count, min_fas_bruteforce, min_fas_exact
from test_oracle import hand_pair_l8

TINY = BRParams(4, 4, 2, 2)


def random_digraph(v, rng, p=0.3):
    rows = [[w for w in range(v) if w != u and rng.random() < p] for u in range(v)]
    return Digraph.from_lists(rows)


# -- minimum feedback arc set ------------------------------------------------


def test_fas_zero_on_dag():
    g = Digraph.from_lists([[1, 2], [2, 3], [3], []])
    r = min_fas_exact(g)
    assert r.min_fas == 0
    assert backedge_count(g, r.witness_ordering) == 0
    assert min_fas_exact(Digraph.from_lists([])).min_fas == 0


def test_fas_three_cycle():
    g = Digraph.from_lists([[1], [2], [0]])
    r = min_fas_exact(g)
    assert r.min_fas == 1
    assert r.epsilon == Fraction(1, 3)  # 1 / (d * V) with d = 1, V = 3
    assert backedge_count(g, r.witness_ordering) == 1


def test_fas_exact_matches_bruteforce():
    rng = np.random.default_rng(17)
    for _ in range(50):
        v = int(rng.integers(2, 9))
        g = random_digraph(v, rng, p=float(rng.uniform(0.1, 0.6)))
        a = min_fas_exact(g)
        b = min_fas_bruteforce(g)
        assert a.min_fas == b.min_fas
        assert backedge_count(g, a.witness_ordering) == a.min_fas
        assert backedge_count(g, b.witness_ordering) == b.min_fas


def test_fas_size_caps():
    big = Digraph.from_lists([[] for _ in range(23)])
    with pytest.raises(TooLarge):
        min_fas_exact(big)
    mid = Digraph.from_lists([[] for _ in range(10)])
    with pytest.raises(TooLarge):
        min_fas_bruteforce(mid)


def test_backedge_count_orderings():
    g = Digraph.from_lists([[1], [2], [0]])
    assert backedge_count(g, [0, 1, 2]) == 1  # only 2->0 goes backward
    assert backedge_count(g, [2, 1, 0]) == 2


# -- per-run statistics -------------------------------------------------------


def test_max_blue_path_all_red_is_zero():
    pair = hand_pair_l8()
    assert max_blue_path({16: (20, 21), 20: (24, 25)}, pair.coloring) == 0


def test_max_blue_path_counts_chain_edges():
    pair = hand_pair_l8()
    recs = tuple(QueryRecord(u, (u + 1, 16 + u)) for u in range(5))
    kg = dict(recs)  # blue chain 0..5
    assert max_blue_path(kg, pair.coloring) == 5


def test_ancestor_counts():
    kg = {0: (1,), 1: (2,)}
    assert ancestor_count(kg, 2) == 2
    assert ancestor_count(kg, 0) == 0
    assert ancestor_count(kg, 77) == 0


def test_epoch_stats_surprise_free_run():
    pair = hand_pair_l8()
    recs = tuple(
        QueryRecord(v, pair.graph.out_list(v)) for v in (16, 17, 24, 25, 32, 33, 40, 41)
    )
    st = epoch_stats(recs, pair.coloring, pair.params.epoch_cap)
    assert st.num_surprise == 0
    assert st.num_epochs == 2  # ceil(8 / (L/2))
    assert st.num_blue_surprise == 0
    assert st.max_blue_path_per_epoch == (0, 0)
    assert st.max_ancestors_blue == 0


def test_epoch_stats_blue_surprise():
    pair = hand_pair_l8()
    # query blue 0, then blue 15 whose answer (0, 31) repeats vertex 0
    recs = (
        QueryRecord(0, pair.graph.out_list(0)),
        QueryRecord(15, pair.graph.out_list(15)),
    )
    st = epoch_stats(recs, pair.coloring, pair.params.epoch_cap)
    assert st.num_surprise == 1
    assert st.num_blue_surprise == 1
    # 15 -> 0 and 15 -> 31 plus 0's own edges: longest blue chain is 15 -> 0 -> 1
    assert st.max_blue_path_per_epoch == (2,)
    assert st.max_ancestors_blue == 2  # vertex 1 is reachable from 0 and 15


# -- out-tree classification --------------------------------------------------


def test_classify_prior_roots():
    kg = {3: (4, 17)}
    trees = classify_trees(kg, prior_vkg={3, 9}, revealed={3: BLUE, 9: 2})
    assert [(t.root, t.kind, t.height) for t in trees] == [(3, TreeKind.TYPE2, 1)]
    trees = classify_trees(kg, prior_vkg={3, 9}, revealed={3: 2, 9: BLUE})
    assert trees[0].kind is TreeKind.TYPE1


def test_classify_fresh_roots():
    with_sink = {5: (6, 7), 6: ()}
    trees = classify_trees(with_sink, set(), {})
    assert trees[0].kind is TreeKind.TYPE3

    no_sink = {3: (4, 17)}
    trees = classify_trees(no_sink, set(), {})
    assert trees[0].kind is TreeKind.TYPE4


def test_classify_multiple_trees_sorted_by_root():
    kg = {8: (9, 10), 2: (5, 6)}
    trees = classify_trees(kg, set(), {})
    assert [t.root for t in trees] == [2, 8]


def test_classify_rejects_shared_child():
    kg = {0: (2, 3), 1: (2, 4)}
    with pytest.raises(NotAForest):
        classify_trees(kg, set(), {})


def test_classify_rejects_cycle():
    kg = {0: (1,), 1: (0,)}
    with pytest.raises(NotAForest):
        classify_trees(kg, set(), {})


# -- naive coloring distribution ----------------------------------------------

OPEN_PAIR = (QueryRecord(0, (1, 4)),)


def naive_mass(assignment: dict[int, int]) -> Fraction:
    # product form for the single fresh height-1 tree of OPEN_PAIR:
    # root blue 4/10, else layers 1..3 at 2/10 each; blue children are
    # blue 1/2 or land in layers 1..2 at 1/4 each; red children forced.
    if assignment[0] == BLUE:
        p = Fraction(2, 5)
        for child in (1, 4):
            p *= Fraction(1, 2) if assignment[child] == BLUE else Fraction(1, 4)
        return p
    return Fraction(1, 5)


def test_sample_output_is_always_good():
    kg = dict(OPEN_PAIR)
    trees = classify_trees(kg, set(), {})
    rng = np.random.default_rng(5)
    for _ in range(300):
        s = sample_naive_coloring(kg, trees, {}, TINY, rng)
        assert set(s) == {0, 1, 4}
        assert is_good_partial(s, kg, TINY)


def test_sample_red_root_chain_is_forced():
    # prior-red root: all depths follow at probability one
    kg = {4: (6, 7)}
    trees = classify_trees(kg, prior_vkg={4}, revealed={4: 1})
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = sample_naive_coloring(kg, trees, {4: 1}, TINY, rng)
        assert s == {4: 1, 6: 2, 7: 2}


def test_sample_sink_tree_is_forced():
    kg = {8: (10, 11), 10: ()}
    trees = classify_trees(kg, set(), {})
    assert trees[0].kind is TreeKind.TYPE3
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = sample_naive_coloring(kg, trees, {}, TINY, rng)
        assert s == {8: 3, 10: 4, 11: 4}


def test_sample_matches_product_form():
    kg = dict(OPEN_PAIR)
    trees = classify_trees(kg, set(), {})
    rng = np.random.default_rng(99)
    n = 4000
    counts = Counter()
    for _ in range(n):
        s = sample_naive_coloring(kg, trees, {}, TINY, rng)
        counts[tuple(sorted(s.items()))] += 1
    assert len(counts) == 12
    for key, c in counts.items():
        p = float(naive_mass(dict(key)))
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(c / n - p) < 4 * sigma


# -- exact conditional --------------------------------------------------------


def test_enumerate_empty_history():
    assert enumerate_conditional_colorings((), {}, TINY) == {(): Fraction(1)}


def test_enumerate_forces_sink_color():
    dist = enumerate_conditional_colorings((QueryRecord(10, ()),), {}, TINY)
    assert dist == {((10, 4),): Fraction(1)}


def test_enumerate_open_pair_masses():
    # Hand-checked law: red roots give the three chains at 1/5 each; a blue
    # root splits the remaining 2/5 across nine child colorings.
    dist = enumerate_conditional_colorings(OPEN_PAIR, {}, TINY)
    assert len(dist) == 12
    assert sum(dist.values()) == 1
    assert dist[((0, 1), (1, 2), (4, 2))] == Fraction(1, 5)
    assert dist[((0, 3), (1, 4), (4, 4))] == Fraction(1, 5)
    assert dist[((0, BLUE), (1, BLUE), (4, BLUE))] == Fraction(2, 35)
    assert dist[((0, BLUE), (1, 1), (4, 1))] == Fraction(2, 105)
    assert dist[((0, BLUE), (1, 1), (4, 2))] == Fraction(4, 105)
    assert dist[((0, BLUE), (1, 2), (4, 1))] == Fraction(4, 105)


def test_enumerate_respects_revealed_colors():
    dist = enumerate_conditional_colorings(OPEN_PAIR, {0: 2}, TINY)
    assert dist == {((0, 2), (1, 3), (4, 3)): Fraction(1)}


def test_exact_vs_naive_ratio_range_on_open_pair():
    # The pointwise agreement claim is asymptotic; at this scale the exact
    # ratios are fixed constants worth pinning down.
    dist = enumerate_conditional_colorings(OPEN_PAIR, {}, TINY)
    ratios = sorted({w / naive_mass(dict(key)) for key, w in dist.items()})
    assert ratios == [
        Fraction(4, 7),
        Fraction(16, 21),
        Fraction(1),
        Fraction(8, 7),
        Fraction(32, 21),
    ]
    assert Fraction(1, 2) < ratios[0] and ratios[-1] < Fraction(17, 10)


def test_is_good_partial_rules():
    kg = dict(OPEN_PAIR)
    assert is_good_partial({0: BLUE, 1: BLUE, 4: 1}, kg, TINY)
    assert not is_good_partial({0: BLUE, 1: 3, 4: 1}, kg, TINY)  # blue into bottom half
    assert not is_good_partial({0: 1, 1: 3, 4: 2}, kg, TINY)  # layer skip
    assert not is_good_partial({0: BLUE, 1: 1, 4: 1, 9: 1}, kg, TINY)  # width 2 exceeded
    sink_kg = {10: ()}
    assert not is_good_partial({10: 2}, sink_kg, TINY)
