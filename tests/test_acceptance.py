"""Acceptance suite: eleven end-to-end checks, one printed verdict line each.

Statistical checks run on frozen seeds so the suite is deterministic; the
thresholds leave real margin at those seeds (see the printed measurements).
"""

import math
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from cyclelab import (
    BRParams,
    EpochReason,
    ExperimentConfig,
    QueryModel,
    QueryRecord,
    backedge_count,
    build_wall,
    decompose_epochs,
    fit_scaling,
    gen_br_pair,
    identify_color,
    max_blue_path,
    min_fas_exact,
    new_oracle,
    records_to_csv,
    run_algorithm1,
    run_algorithm2,
    run_bfs_heuristic,
    run_experiment,
    run_random_walk_finder,
    validate_br,
    verify_cycle,
    wall_identify,
)
from cyclelab.analysis import _seen_set
from cyclelab.graphs import Digraph

from colouring_law import classify_trees, enumerate_conditional_colorings, sample_naive_coloring
from fas_reference import min_fas_bruteforce

# the whole module is the slow end-to-end tier; `pytest -m "not acceptance"`
# skips it for a fast inner loop
pytestmark = pytest.mark.acceptance

# running tally for the soundness gate: every cycle any finder claims in this
# module goes through verify_cycle and lands here
CLAIMS = {"checked": 0, "failed": 0}


def check_claim(graph, cycle) -> bool:
    ok = verify_cycle(graph, cycle)
    CLAIMS["checked"] += 1
    if not ok:
        CLAIMS["failed"] += 1
    return ok


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# -- 1: generator validity ----------------------------------------------------


def test_01_generated_pairs_satisfy_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    cells = []
    for n in (4, 16, 64, 256, 2048):
        for layers in range(2, 2 * n + 1, 2):
            if (2 * n) % layers == 0 and (2 * n) // layers >= 2:
                cells.append((n, layers))
    pairs = 0
    violations = 0
    while pairs < 1000:
        n, layers = cells[pairs % len(cells)]
        width = 2 * n // layers
        d = 2 if pairs % 2 == 0 else min(4, width)
        pair = gen_br_pair(BRParams(n, layers, width, d), rng)
        violations += len(validate_br(pair))
        pairs += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30
    report(1, "generator validity", ok,
           f"{violations} violations in {pairs} pairs over {len(cells)} grid cells, {elapsed:.1f}s")
    assert ok


# -- 2: the two feedback-arc-set solvers agree --------------------------------


def test_02_exact_fas_matches_bruteforce():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    mismatches = 0
    for _ in range(200):
        v = int(rng.integers(1, 9))
        rows = []
        for _u in range(v):
            k = int(rng.integers(0, 4))
            rows.append([int(x) for x in rng.integers(0, v, size=k)])
        g = Digraph.from_lists(rows)
        exact = min_fas_exact(g)
        brute = min_fas_bruteforce(g)
        if exact.min_fas != brute.min_fas:
            mismatches += 1
        # both witnesses must achieve their claimed size
        assert backedge_count(g, exact.witness_ordering) == exact.min_fas
        assert backedge_count(g, brute.witness_ordering) == brute.min_fas
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60
    report(2, "fas solver agreement", ok,
           f"{mismatches} mismatches in 200 digraphs with up to 8 vertices, {elapsed:.1f}s")
    assert ok


# -- 3: small layered instances are far from acyclic --------------------------


def test_03_small_pairs_are_far_from_acyclic():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    params = BRParams(6, 2, 6, 4)  # 18 vertices, dense blue core
    epsilons = []
    cyclic = 0
    for _ in range(50):
        pair = gen_br_pair(params, rng)
        res = min_fas_exact(pair.graph)
        if res.min_fas > 0:
            cyclic += 1
        epsilons.append(res.epsilon)
    median_eps = statistics.median(epsilons)
    elapsed = time.perf_counter() - t0
    ok = cyclic == 50
    report(3, "farness from acyclic", ok,
           f"min feedback arc set positive in {cyclic}/50 instances, "
           f"median epsilon {median_eps}, {elapsed:.1f}s")
    assert ok


# -- 4: random-walk finder scales like sqrt(n) ---------------------------------


def test_04_walk_finder_sqrt_scaling():
    t0 = time.perf_counter()
    records = []
    rates = {}
    for n in (10**3, 10**4, 10**5):
        config = ExperimentConfig(
            dist="brsimple", algo="walk", n=n, trials=100, base_seed=0,
            d=3, budget=math.ceil(10 * math.sqrt(n)),
        )
        recs = run_experiment(config)
        rates[n] = sum(r.success for r in recs)
        CLAIMS["checked"] += rates[n]  # run_trial verifies each claimed cycle
        records.extend(recs)
    fit = fit_scaling(records)
    elapsed = time.perf_counter() - t0
    ok = (
        all(rate >= 95 for rate in rates.values())
        and 0.4 <= fit.exponent <= 0.6
        and elapsed < 300
    )
    report(4, "walk finder scaling", ok,
           f"success {rates[10**3]}/{rates[10**4]}/{rates[10**5]} per 100 at "
           f"n=1e3/1e4/1e5, exponent {fit.exponent:.3f}, r2 {fit.r_squared:.4f}, "
           f"{elapsed:.1f}s")
    assert ok


# -- 5: surprises per run stay under the quadratic bound -----------------------


def test_05_surprise_counts_bounded():
    t0 = time.perf_counter()
    rng = np.random.default_rng(50)
    params = BRParams(2**14, 8, 4096, 8)
    q = params.width // 4
    bound = 2 * (2 * params.outdeg**2 * q * q / params.width)
    under = 0
    worst = 0
    for _ in range(50):
        pair = gen_br_pair(params, rng)
        oracle = new_oracle(pair, QueryModel.VERTEX)
        for v in rng.permutation(pair.graph.v_count)[:q]:
            oracle.query_vertex(int(v))
        dec = decompose_epochs(oracle.history, pair.params.epoch_cap)
        surprises = sum(1 for r in dec.end_reasons if r is EpochReason.SURPRISE)
        worst = max(worst, surprises)
        if surprises <= bound:
            under += 1
    elapsed = time.perf_counter() - t0
    ok = under >= 48  # 95% of 50
    report(5, "surprise rate bound", ok,
           f"{under}/50 runs under bound {bound:.0f}, max observed {worst}, "
           f"{q} uniform queries each, {elapsed:.1f}s")
    assert ok


# -- 6: long blue paths inside epochs are rare ----------------------------------


def test_06_long_blue_paths_rare():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    params = BRParams(2**14, 128, 256, 4)
    threshold = 4 * math.log2(params.n_blue)
    lengths = []

    def harvest(pair, oracle):
        dec = decompose_epochs(oracle.history, pair.params.epoch_cap)
        for seg in dec.closed_epochs:
            lengths.append(max_blue_path(dict(seg), pair.coloring))

    # strategy 1: distinct uniform vertices
    pair = gen_br_pair(params, rng)
    oracle = new_oracle(pair, QueryModel.VERTEX)
    for v in rng.permutation(pair.graph.v_count)[: 2**15]:
        oracle.query_vertex(int(v))
    harvest(pair, oracle)

    # strategy 2: follow random out-edges, restart at sinks
    pair = gen_br_pair(params, rng)
    oracle = new_oracle(pair, QueryModel.VERTEX)
    cur = int(rng.integers(pair.graph.v_count))
    steps = 0
    while oracle.vertex_query_count < 2**13 and steps < 2**16:
        steps += 1
        answer = oracle.query_vertex(cur)
        cur = answer[int(rng.integers(len(answer)))] if answer else int(rng.integers(pair.graph.v_count))
    harvest(pair, oracle)

    # strategy 3: expand random seen-but-unqueried vertices
    pair = gen_br_pair(params, rng)
    oracle = new_oracle(pair, QueryModel.VERTEX)
    seen = []
    seen_set = set()
    while oracle.vertex_query_count < 2**13:
        if seen:
            i = int(rng.integers(len(seen)))
            v = seen.pop(i)
        else:
            v = int(rng.integers(pair.graph.v_count))
            while v in seen_set:
                v = int(rng.integers(pair.graph.v_count))
            seen_set.add(v)
        for w in oracle.query_vertex(v):
            if w not in seen_set:
                seen_set.add(w)
                seen.append(w)
    harvest(pair, oracle)

    long_count = sum(1 for x in lengths if x > threshold)
    fraction = long_count / len(lengths)
    elapsed = time.perf_counter() - t0
    ok = len(lengths) >= 1000 and fraction <= 0.01
    report(6, "blue path bound", ok,
           f"{long_count}/{len(lengths)} closed epochs with blue path over "
           f"{threshold:.0f} ({100 * fraction:.2f}%), 3 query strategies, {elapsed:.1f}s")
    assert ok


# -- 7: layered finder succeeds within its query budget -------------------------


def test_07_layered_finder_within_budget():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    params = BRParams(2**17, 16, 16384, 8)
    budget = math.ceil(100 * params.layers * math.sqrt(params.n_blue))
    wins = 0
    spent = []
    for _ in range(20):
        pair = gen_br_pair(params, rng)
        oracle = new_oracle(pair, QueryModel.VERTEX)
        out = run_algorithm1(oracle, params, rng)
        spent.append(out.queries_used)
        if out.success and check_claim(pair.graph, out.cycle) and out.queries_used <= budget:
            wins += 1
    elapsed = time.perf_counter() - t0
    ok = wins >= 16 and elapsed < 600
    report(7, "layered finder budget", ok,
           f"{wins}/20 verified cycles within {budget} queries, median spend "
           f"{int(statistics.median(spent))}, {elapsed:.1f}s")
    assert ok


# -- 8: wall-calibrated color verdicts match the hidden coloring ----------------


def test_08_wall_verdicts_match_hidden_colors():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    params = BRParams(2**14, 32, 1024, 8)
    pair = gen_br_pair(params, rng)
    oracle = new_oracle(pair, QueryModel.VERTEX)
    lay = pair.coloring.layer_by_vertex

    depth = 0  # floor(log_d W), alg2's wall depth
    reach = 1
    while reach * params.outdeg <= params.width:
        reach *= params.outdeg
        depth += 1

    member_layer: dict[int, int] = {}
    walls = 0
    while walls < 4:
        cand = int(rng.integers(pair.graph.v_count))
        est = identify_color(oracle, cand, params.layers, rng)
        if not est.is_red:
            continue
        wall = build_wall(oracle, cand, depth, layer_hint=est.color)
        if wall is None:
            continue
        walls += 1
        for m in wall.members:
            member_layer.setdefault(m, wall.layer_estimate)

    agree = 0
    decided = 0
    attempts = 0
    while decided < 600 and attempts < 1500:
        attempts += 1
        v = int(rng.integers(pair.graph.v_count))
        est = wall_identify(oracle, v, member_layer, params.layers, rng)
        if est.is_unknown:
            continue
        decided += 1
        if est.color == int(lay[v]):
            agree += 1
    elapsed = time.perf_counter() - t0
    ok = decided >= 500 and agree / decided >= 0.95
    report(8, "wall color verdicts", ok,
           f"{agree}/{decided} verdicts match the hidden coloring "
           f"({100 * agree / decided:.1f}%, margin {100 * (agree / decided - 0.95):.1f} points "
           f"over 95%; {decided - 500} decided over 500), depth-{depth} walls, "
           f"4 walls of {len(member_layer)} members, {elapsed:.1f}s")
    assert ok


# -- 9: exact conditional law vs the product-form sampler -----------------------

TINY = BRParams(4, 4, 2, 2)

# transcripts over the fixed tiny layout (blue 0-3, then red layers of width
# two: {4,5} {6,7} {8,9} {10,11}); each pins every seen color, so the exact
# law and the product-form sampler must both land on a single outcome
FORCED_PAIRS = [
    # sink answer alone forces the bottom layer
    ("lone sink", [(10, ())], 0, {}),
    # a sink one step below the root forces the whole tree
    ("sink tree", [(8, (10, 11)), (10, ())], 0, {}),
    # a closed epoch with everything revealed leaves nothing free
    ("full reveal", [(4, (6, 7)), (6, (8, 9))], 2, {4: 1, 6: 2, 7: 2, 8: 3, 9: 3}),
    # children of a revealed layer-1 vertex must sit in layer 2
    ("revealed r1 root", [(0, (4, 1)), (1, (2, 5)), (4, (6, 7))], 2,
     {0: 0, 1: 0, 2: 0, 4: 1, 5: 1}),
    ("revealed r2 root", [(4, (6, 7)), (0, (1, 5)), (6, (8, 9))], 2,
     {0: 0, 1: 0, 4: 1, 5: 1, 6: 2, 7: 2}),
    ("revealed r3 root", [(4, (6, 7)), (6, (8, 9)), (8, (10, 11))], 2,
     {4: 1, 6: 2, 7: 2, 8: 3, 9: 3}),
]


def test_09_forced_pairs_exact_vs_sampled():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    samples = 10**5
    worst_low, worst_high = 1.0, 1.0
    for name, recs, n_prior, revealed in FORCED_PAIRS:
        history = tuple(QueryRecord(v, tuple(a)) for v, a in recs)
        exact = enumerate_conditional_colorings(history, revealed, TINY)

        prior_vkg = _seen_set(dict(history[:n_prior]))
        epoch_kg = dict(history[n_prior:])
        trees = classify_trees(epoch_kg, prior_vkg, revealed)
        all_seen = sorted(_seen_set(dict(history)))

        counts: dict[tuple, int] = {}
        for _ in range(samples):
            drawn = sample_naive_coloring(epoch_kg, trees, revealed, TINY, rng)
            key = tuple((v, drawn[v] if v in drawn else revealed[v]) for v in all_seen)
            counts[key] = counts.get(key, 0) + 1

        for key in set(exact) | set(counts):
            p = exact.get(key, Fraction(0))
            q = Fraction(counts.get(key, 0), samples)
            assert p > 0 or q == 0, f"{name}: sampler reached a zero-probability outcome"
            if p > 0:
                ratio = q / p
                worst_low = min(worst_low, float(ratio))
                worst_high = max(worst_high, float(ratio))
                assert Fraction(3, 4) <= ratio <= Fraction(4, 3), f"{name}: ratio {ratio}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120
    report(9, "conditional law fidelity", ok,
           f"{len(FORCED_PAIRS)} forced transcripts, {samples} draws each, "
           f"ratio range [{worst_low:.3f}, {worst_high:.3f}], {elapsed:.1f}s")
    assert ok


# -- 10: every claimed cycle is real --------------------------------------------


def test_10_all_claimed_cycles_verified():
    # independent batch so this check stands even when run alone
    rng = np.random.default_rng(10)
    from cyclelab import gen_br_simple

    for seed in range(10):
        g = gen_br_simple(1000, 3, np.random.default_rng(100 + seed))
        out = run_random_walk_finder(new_oracle(g, QueryModel.VERTEX),
                                     400, rng)
        if out.success:
            assert check_claim(g, out.cycle)
    for seed in range(5):
        params = BRParams(256, 4, 128, 4)
        pair = gen_br_pair(params, np.random.default_rng(200 + seed))
        out = run_algorithm1(new_oracle(pair, QueryModel.VERTEX),
                             params, rng)
        if out.success:
            assert check_claim(pair.graph, out.cycle)
    for seed in range(3):
        params = BRParams(256, 8, 64, 4)
        pair = gen_br_pair(params, np.random.default_rng(300 + seed))
        out = run_algorithm2(new_oracle(pair, QueryModel.VERTEX),
                             params, rng)
        if out.success:
            assert check_claim(pair.graph, out.cycle)
    for seed in range(3):
        params = BRParams(64, 4, 32, 3)
        pair = gen_br_pair(params, np.random.default_rng(400 + seed))
        out = run_bfs_heuristic(new_oracle(pair, QueryModel.VERTEX),
                                8, rng, max_queries=2000)
        if out.success:
            assert check_claim(pair.graph, out.cycle)

    ok = CLAIMS["failed"] == 0 and CLAIMS["checked"] > 0
    report(10, "cycle soundness gate", ok,
           f"{CLAIMS['checked']} claimed cycles checked across the suite, "
           f"{CLAIMS['failed']} failures")
    assert ok


# -- 11: identical config and seed reproduce the CSV byte for byte ---------------


def test_11_reruns_byte_identical():
    t0 = time.perf_counter()
    configs = [
        ExperimentConfig(dist="brsimple", algo="walk", n=1000, trials=5,
                         base_seed=123, d=3, budget=400),
        ExperimentConfig(dist="br", algo="alg1", n=256, trials=3,
                         base_seed=9, layers=4, d=4),
        ExperimentConfig(dist="br", algo="alg2", n=256, trials=2,
                         base_seed=9, layers=8, d=4),
        ExperimentConfig(dist="br", algo="bfs", n=64, trials=4,
                         base_seed=11, layers=4, d=3, reps=8),
    ]
    identical = 0
    for config in configs:
        first = records_to_csv(run_experiment(config)).encode()
        second = records_to_csv(run_experiment(config)).encode()
        if first == second:
            identical += 1
    elapsed = time.perf_counter() - t0
    ok = identical == len(configs)
    report(11, "byte-identical reruns", ok,
           f"{identical}/{len(configs)} configs reproduce their CSV exactly, {elapsed:.1f}s")
    assert ok
