"""Property tests: buffered draws against scalar ``rng.integers``, alone and inside every finder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclelab import (
    BRParams,
    QueryModel,
    gen_br_pair,
    gen_br_simple,
    identify_color,
    new_oracle,
    run_algorithm1,
    run_algorithm2,
    run_bfs_heuristic,
    run_birthday_sampler,
    run_random_walk_finder,
    wall_identify,
)
from cyclelab._draws import BLOCK, DrawSource, ScalarDraws, draw_source
from cyclelab.oracle import Oracle

# weighted towards k = 1 (no bits used), small k, and k just above 2**31,
# where about half of all draws are rejected
BOUNDS = st.one_of(
    st.just(1),
    st.integers(2, 16),
    st.integers(2**31 + 1, 2**31 + 2**20),
    st.integers(1, 2**32 - 1),
)


def entry_state(seed: int, scalar_draws: int) -> np.random.Generator:
    """A generator after 0, 1 or 2 scalar draws: none, a buffered or a stale high half."""
    rng = np.random.default_rng(seed)
    for _ in range(scalar_draws):
        rng.integers(7)
    return rng


@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2),
    # (k, repeats, sync afterwards): long repeats cross block boundaries
    st.lists(
        st.tuples(BOUNDS, st.one_of(st.integers(1, 4), st.integers(BLOCK, 3 * BLOCK)), st.booleans()),
        max_size=8,
    ),
)
def test_source_matches_scalar_draws(seed, scalar_draws, runs):
    ref = entry_state(seed, scalar_draws)
    rng = entry_state(seed, scalar_draws)
    source = draw_source(rng)
    assert type(source) is DrawSource
    for k, repeats, sync in runs:
        want = [int(ref.integers(k)) for _ in range(repeats)]
        got = [source.below(k) for _ in range(repeats)]
        assert got == want
        if sync:
            source.sync()
            assert rng.bit_generator.state == ref.bit_generator.state
    source.sync()
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()


# the bounds a stream must get right: no bits (1), no rejection (2, 8, 2**32),
# rare rejection (3, 2**32 - 1) and about half rejected (2**31 + 1)
STREAM_BOUNDS = st.one_of(st.sampled_from([1, 2, 3, 8, 2**31 + 1, 2**32 - 1, 2**32]), BOUNDS)
# (op, k, repeats): runs of stream takes or below calls, or a sync; a run of
# no takes opens a stream and uses nothing, long runs cross block boundaries
DRAW_OPS = st.lists(
    st.tuples(
        st.sampled_from(["stream", "below", "sync"]),
        STREAM_BOUNDS,
        st.one_of(st.integers(0, 4), st.integers(BLOCK, 3 * BLOCK)),
    ),
    max_size=10,
)


def run_draw_ops(source, ref, ops, synced):
    """Apply ops to source and the matching scalar draws to ref; synced() after each sync."""
    for op, k, repeats in ops:
        if op == "sync":
            source.sync()
            synced()
            continue
        want = [int(ref.integers(k)) for _ in range(repeats)]
        if op == "stream":
            # reopened after any other draw, the same callable while still open
            take = source.stream(k)
            got = [take() for _ in range(repeats)]
        else:
            got = [source.below(k) for _ in range(repeats)]
        assert got == want
    source.sync()
    synced()


@given(st.integers(0, 2**64 - 1), st.integers(0, 2), DRAW_OPS)
def test_streams_interleave_with_scalar_draws(seed, scalar_draws, ops):
    ref = entry_state(seed, scalar_draws)
    rng = entry_state(seed, scalar_draws)
    source = draw_source(rng)
    assert type(source) is DrawSource

    def synced():
        assert rng.bit_generator.state == ref.bit_generator.state

    run_draw_ops(source, ref, ops, synced)
    assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()


@given(st.integers(0, 2**64 - 1), st.integers(0, 2), DRAW_OPS)
def test_scalar_streams_interleave_with_scalar_draws(seed, scalar_draws, ops):
    rng = np.random.Generator(np.random.Philox(seed))
    ref = np.random.Generator(np.random.Philox(seed))
    for _ in range(scalar_draws):
        rng.integers(7)
        ref.integers(7)
    source = draw_source(rng)
    assert type(source) is ScalarDraws

    def synced():
        # Philox's state holds arrays: compare its buffered half
        state, ref_state = rng.bit_generator.state, ref.bit_generator.state
        for key in ("has_uint32", "uinteger"):
            assert state[key] == ref_state[key]

    run_draw_ops(source, ref, ops, synced)
    assert rng.bit_generator.random_raw(8).tolist() == ref.bit_generator.random_raw(8).tolist()


def test_an_open_stream_is_settled_by_every_other_draw():
    rng, ref = np.random.default_rng(21), np.random.default_rng(21)
    source = DrawSource(rng)
    take = source.stream(2**31 + 1)
    assert source.stream(2**31 + 1) is take  # still open
    want = [int(ref.integers(2**31 + 1)) for _ in range(5)]
    assert [take() for _ in range(5)] == want
    assert source.below(10) == int(ref.integers(10))  # settles the stream
    take = source.stream(2**31 + 1)
    assert [take() for _ in range(2 * BLOCK)] == [
        int(ref.integers(2**31 + 1)) for _ in range(2 * BLOCK)
    ]
    source._put_back()
    assert rng.bit_generator.state == ref.bit_generator.state


@given(st.integers(0, 2**64 - 1), st.integers(0, 2), st.integers(2**32, 2**62))
def test_bounds_past_32_bits_go_to_numpy(seed, scalar_draws, k):
    ref = entry_state(seed, scalar_draws)
    rng = entry_state(seed, scalar_draws)
    source = DrawSource(rng)
    want = [int(ref.integers(3)), int(ref.integers(k)), int(ref.integers(3))]
    assert [source.below(3), source.below(k), source.below(3)] == want
    source.sync()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("k", [0, -5])
def test_empty_range_raises_like_numpy(k):
    rng = np.random.default_rng(3)
    source = DrawSource(rng)
    source.below(10)
    with pytest.raises(ValueError):
        np.random.default_rng(3).integers(k)
    with pytest.raises(ValueError):
        source.below(k)
    ref = np.random.default_rng(3)
    ref.integers(10)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_only_an_exact_pcg64_generator_is_buffered():
    rng = np.random.default_rng(0)
    source = draw_source(rng)
    assert type(source) is DrawSource
    assert draw_source(source) is source
    assert type(draw_source(np.random.Generator(np.random.Philox(0)))) is ScalarDraws
    assert type(draw_source(IntegersOnly(rng))) is ScalarDraws


class IntegersOnly:
    """Only ``integers``, forwarded to a Generator: the finders' scalar path."""

    __slots__ = ("_rng",)

    def __init__(self, rng):
        self._rng = rng

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


FINDERS = ("walk", "birthday", "alg1", "alg2", "bfs")


class Interrupted(Exception):
    """What an ``InterruptingOracle`` raises in place of a charged query."""


class InterruptingOracle(Oracle):
    """An oracle that raises ``Interrupted`` in place of its (k+1)-th charged query.

    Answers from the cache stay free and never raise, so a finder is
    stopped in the middle of whatever it was doing when its k-th query
    came back.
    """

    def __init__(self, graph, model, k):
        super().__init__(graph, model)
        self.k = k

    def query_vertex(self, u):
        if u not in self.kg.out and self.vertex_query_count >= self.k:
            raise Interrupted
        return super().query_vertex(u)

    def query_adj(self, u, i):
        if self.adj_query_count >= self.k:
            raise Interrupted
        return super().query_adj(u, i)


def run_finder(name, oracle, params, rng, budget):
    if name == "walk":
        return run_random_walk_finder(oracle, budget, rng)
    if name == "birthday":
        return run_birthday_sampler(oracle, budget, rng)
    if name == "alg1":
        return run_algorithm1(oracle, params, rng, budget=budget)
    if name == "alg2":
        return run_algorithm2(oracle, params, rng, budget=budget)
    return run_bfs_heuristic(oracle, 3, rng, max_queries=budget)


@st.composite
def finder_cases(draw, name):
    """Small BRParams, an instance seed, a budget and an oracle kind for one finder."""
    layers = draw(st.sampled_from([2, 4, 8]))
    width = draw(st.integers(2, 16))
    n_blue = layers * width // 2
    d = draw(st.integers(2, min(width, 2 * n_blue - 1, 4)))
    return {
        "name": name,
        "params": BRParams(n_blue, layers, width, d),
        # walk, birthday and bfs also run on matched-half graphs
        "simple": name in ("walk", "birthday", "bfs") and draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "budget": draw(st.integers(1, 400)),
        # charged queries after which the oracle raises Interrupted, often
        # in the middle of a walk; None for an oracle that never raises
        "interrupt_at": draw(st.one_of(st.none(), st.none(), st.integers(0, 20))),
    }


def finder_twin(case, rng):
    params = case["params"]
    instance_rng = np.random.default_rng(case["seed"])
    if case["simple"]:
        graph = gen_br_simple(2 * params.n_blue, params.outdeg, instance_rng)
    else:
        graph = gen_br_pair(params, instance_rng).graph
    model = QueryModel.ADJ_LIST if case["name"] == "birthday" else QueryModel.VERTEX
    k = case["interrupt_at"]
    oracle = new_oracle(graph, model) if k is None else InterruptingOracle(graph, model, k)
    try:
        outcome = run_finder(case["name"], oracle, params, rng, case["budget"])
    except Interrupted:
        outcome = Interrupted
    return outcome, oracle


@pytest.mark.parametrize("name", FINDERS)
@settings(max_examples=40)
@given(data=st.data())
def test_finders_match_their_scalar_twin(name, data):
    case = data.draw(finder_cases(name))
    scalar_draws = data.draw(st.integers(0, 2))
    # the finder's generator starts with no, a buffered or a stale high half
    fast_rng = entry_state(case["seed"] + 1, scalar_draws)
    ref_rng = entry_state(case["seed"] + 1, scalar_draws)
    got, oracle = finder_twin(case, fast_rng)
    want, ref_oracle = finder_twin(case, IntegersOnly(ref_rng))
    assert got == want
    if name != "birthday":  # an adjacency-list oracle keeps no transcript
        assert oracle.history == ref_oracle.history
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
    # the finder reports the oracle's meter and never overdraws, even when
    # the oracle stops it with Interrupted
    meter = oracle.vertex_query_count + oracle.adj_query_count
    assert meter <= case["budget"]
    if got is not Interrupted:
        assert got.queries_used == meter


@pytest.mark.parametrize("name", FINDERS)
def test_non_pcg64_generators_take_the_scalar_path(name):
    params = BRParams(16, 4, 8, 3)
    case = {"name": name, "params": params, "simple": False, "seed": 5,
            "budget": 60, "interrupt_at": None}
    philox = np.random.Generator(np.random.Philox(9))
    ref = np.random.Generator(np.random.Philox(9))
    got, oracle = finder_twin(case, philox)
    want, ref_oracle = finder_twin(case, IntegersOnly(ref))
    assert got == want
    assert got.queries_used > 0
    if name != "birthday":  # an adjacency-list oracle keeps no transcript
        assert oracle.history == ref_oracle.history
    # Philox's state holds arrays: compare its buffered half and what comes next
    state, ref_state = philox.bit_generator.state, ref.bit_generator.state
    assert (state["has_uint32"], state["uinteger"]) == (ref_state["has_uint32"], ref_state["uinteger"])
    assert philox.bit_generator.random_raw(8).tolist() == ref.bit_generator.random_raw(8).tolist()


@pytest.mark.parametrize("walls", [False, True])
def test_colour_tests_put_the_generator_back_when_the_oracle_raises(walls):
    # a walk from layer 1 of 8 charges 8 queries, so the oracle raises in
    # the second walk
    pair = gen_br_pair(BRParams(256, 8, 64, 4), np.random.default_rng(11))
    v = int(pair.coloring.layer_vertices(1)[0])
    members = dict.fromkeys(pair.coloring.layer_vertices(7)[:1].tolist(), 7) if walls else {}
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for twin_rng in (rng, IntegersOnly(ref)):
        oracle = InterruptingOracle(pair.graph, QueryModel.VERTEX, 10)
        with pytest.raises(Interrupted):
            if walls:
                wall_identify(oracle, v, members, 8, twin_rng)
            else:
                identify_color(oracle, v, 8, twin_rng)
        assert oracle.vertex_query_count == 10
    assert rng.bit_generator.state == ref.bit_generator.state
