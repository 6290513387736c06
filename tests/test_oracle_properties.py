"""Property tests: live oracle bookkeeping against after-the-fact rebuilds."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cyclelab import (
    BRParams,
    EpochReason,
    QueryModel,
    QueryRecord,
    color_token,
    decompose_epochs,
    gen_br_pair,
    new_oracle,
)
from cyclelab.oracle import QueryHistory


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


def seen_through_last_close(history: QueryHistory, cap: int) -> set[int]:
    dec = decompose_epochs(history, cap)
    return history.prefix(sum(len(e) for e in dec.closed_epochs)).vertices()


def rebuilt_transcript(history: QueryHistory, cap: int, coloring, with_closes: bool) -> str:
    dec = decompose_epochs(history, cap)
    epochs = list(dec.closed_epochs) + [dec.current_epoch]
    lines = []
    shown: set[int] = set()
    for n, epoch in enumerate(epochs, start=1):
        for rec in epoch:
            lines.append(" ".join([f"q {rec.vertex} :", *map(str, rec.answer)]))
        if n == len(epochs) or not with_closes:
            continue
        lines.append(f"# epoch {n} closed: {dec.end_reasons[n - 1].value}")
        fresh = sorted(epoch.vertices() - shown)
        shown.update(fresh)
        if fresh:
            body = " ".join(f"{v}={color_token(coloring.color(v))}" for v in fresh)
            lines.append(f"# reveal {body}")
    return "".join(line + "\n" for line in lines)


@given(runs(), st.sampled_from([QueryModel.VERTEX, QueryModel.COLOR_REVELATION]))
def test_live_bookkeeping_matches_rebuild(run, model):
    params, seed, queries = run
    pair = gen_br_pair(params, np.random.default_rng(seed))
    cap = params.epoch_cap
    oracle = new_oracle(pair, model, lenient=True)
    reveals = model is QueryModel.COLOR_REVELATION
    for u in queries:
        assert oracle.query_vertex(u) == pair.graph.out_list(u)
        history = oracle.history
        assert oracle.epochs == decompose_epochs(history, cap)
        expected = seen_through_last_close(history, cap) if reveals else set()
        assert oracle.revealed == {v: pair.coloring.color(v) for v in expected}
    assert oracle.vertex_query_count == len(oracle.history) == len(set(queries))
    assert oracle.transcript() == rebuilt_transcript(oracle.history, cap, pair.coloring, reveals)


@st.composite
def histories(draw):
    """Records over distinct queried vertices whose answers often name seen ones."""
    queried = draw(st.lists(st.integers(0, 11), unique=True, max_size=12))
    answers = st.lists(st.integers(0, 15), max_size=3).map(tuple)
    return QueryHistory(tuple(QueryRecord(u, draw(answers)) for u in queried))


def reference_split(history: QueryHistory, cap: int):
    """Epochs from the definition: record k is a surprise iff its answer meets
    the vertices of the first k-1 records; an epoch also closes at cap records."""
    closed, reasons, start = [], [], 0
    for k in range(1, len(history) + 1):
        surprise = not history.prefix(k - 1).vertices().isdisjoint(history[k - 1].answer)
        if surprise or k - start == cap:
            closed.append(QueryHistory(history.records[start:k]))
            reasons.append(EpochReason.SURPRISE if surprise else EpochReason.TIMEOUT)
            start = k
    return tuple(closed), tuple(reasons), QueryHistory(history.records[start:])


@given(histories(), st.integers(1, 6))
def test_decompose_matches_the_definition(history, cap):
    dec = decompose_epochs(history, cap)
    assert (dec.closed_epochs, dec.end_reasons, dec.current_epoch) == reference_split(history, cap)
    assert dec.epoch_cap == cap
