"""Property tests: live oracle bookkeeping against after-the-fact rebuilds."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cyclelab import (
    BRParams,
    EpochReason,
    QueryModel,
    QueryRecord,
    decompose_epochs,
    gen_br_pair,
    new_oracle,
)
from cyclelab.analysis import _seen_set

History = tuple[QueryRecord, ...]


@st.composite
def runs(draw):
    """Valid small BRParams, an instance seed and a query sequence with repeats."""
    layers = draw(st.sampled_from([2, 4, 6, 8]))
    width = draw(st.integers(2, 8))
    n_blue = layers * width // 2
    d = draw(st.integers(2, min(width, 2 * n_blue - 1)))
    params = BRParams(n_blue, layers, width, d)
    seed = draw(st.integers(0, 2**32 - 1))
    queries = draw(st.lists(st.integers(0, params.v_count - 1), max_size=60))
    return params, seed, queries


def rebuilt_history(graph, queries: list[int]) -> History:
    """One record per distinct queried vertex, in first-query order."""
    return tuple(QueryRecord(u, graph.out_list(u)) for u in dict.fromkeys(queries))


@given(runs())
def test_live_bookkeeping_matches_rebuild(run):
    params, seed, queries = run
    pair = gen_br_pair(params, np.random.default_rng(seed))
    oracle = new_oracle(pair, QueryModel.VERTEX)
    for u in queries:
        assert oracle.query_vertex(u) == pair.graph.out_list(u)
    assert oracle.vertex_query_count == len(oracle.history) == len(set(queries))
    assert oracle.history == rebuilt_history(pair.graph, queries)


@st.composite
def histories(draw):
    """Records over distinct queried vertices whose answers often name seen ones."""
    queried = draw(st.lists(st.integers(0, 11), unique=True, max_size=12))
    answers = st.lists(st.integers(0, 15), max_size=3).map(tuple)
    return tuple(QueryRecord(u, draw(answers)) for u in queried)


def reference_split(history: History, cap: int):
    """Epochs from the definition: record k is a surprise iff its answer meets
    the vertices of the first k-1 records; an epoch also closes at cap records."""
    closed, reasons, start = [], [], 0
    for k in range(1, len(history) + 1):
        surprise = not _seen_set(dict(history[:k - 1])).isdisjoint(history[k - 1].answer)
        if surprise or k - start == cap:
            closed.append(history[start:k])
            reasons.append(EpochReason.SURPRISE if surprise else EpochReason.TIMEOUT)
            start = k
    return tuple(closed), tuple(reasons), history[start:]


@given(histories(), st.integers(1, 6))
def test_decompose_matches_the_definition(history, cap):
    dec = decompose_epochs(history, cap)
    assert (dec.closed_epochs, dec.end_reasons, dec.current_epoch) == reference_split(history, cap)
    assert dec.epoch_cap == cap
