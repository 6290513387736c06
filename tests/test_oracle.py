"""Query access, surprise bookkeeping, and epoch decomposition tests."""

import numpy as np
import pytest

from cyclelab import (
    BRPair,
    BRParams,
    Coloring,
    Digraph,
    EpochReason,
    IndexOutOfRange,
    QueryModel,
    QueryRecord,
    VertexOutOfRange,
    decompose_epochs,
    detect_cycle,
    knowledge_graph,
    new_oracle,
    validate_br,
    verify_cycle,
)
from cyclelab.oracle import QueryHistory


def hand_pair_l8() -> BRPair:
    """Fixed 48-vertex instance with L=8, W=4, d=2 and a known layout.

    Blues are 0..15, red layer i occupies 16+4(i-1)..16+4i-1.  Every list
    is chosen by formula so tests can predict answers exactly.
    """
    params = BRParams(16, 8, 4, 2)
    lay = np.zeros(48, dtype=np.int64)
    for i in range(1, 9):
        lay[16 + 4 * (i - 1): 16 + 4 * i] = i
    rows = []
    for u in range(16):
        rows.append([(u + 1) % 16, 16 + u])  # one blue, one in r1..r4
    for i in range(1, 8):
        base = 16 + 4 * i
        for j in range(4):
            off = 2 * (j % 2)
            rows.append([base + off, base + off + 1])
    rows.extend([[], [], [], []])
    return BRPair(params, Coloring(params, lay), Digraph.from_lists(rows))


def test_hand_pair_is_valid():
    assert validate_br(hand_pair_l8()) == []


def test_fresh_oracle_is_empty():
    pair = hand_pair_l8()
    oracle = new_oracle(pair, model=QueryModel.VERTEX)
    assert oracle.vertex_query_count == 0
    assert oracle.adj_query_count == 0
    assert not oracle.kg.vertices
    assert oracle.transcript() == ""
    dec = decompose_epochs(oracle.history, pair.params.epoch_cap)
    assert dec.closed_epochs == ()
    assert len(dec.current_epoch) == 0


def test_sink_answers_empty():
    oracle = new_oracle(hand_pair_l8(), model=QueryModel.VERTEX)
    assert oracle.query_vertex(44) == ()


def test_timeout_close_reveals_all_seen():
    # Eight queries with pairwise fresh answers: the epoch must close at
    # L/2 = 4 with reason timeout, and again at 8.
    pair = hand_pair_l8()
    cap = pair.params.epoch_cap
    oracle = new_oracle(pair, model=QueryModel.VERTEX)
    seq = [16, 17, 24, 25, 32, 33, 40, 41]
    for k, v in enumerate(seq, start=1):
        oracle.query_vertex(v)
        dec = decompose_epochs(oracle.history, cap)
        assert len(dec.closed_epochs) == (1 if 4 <= k < 8 else 0 if k < 4 else 2)
    assert dec.end_reasons == (EpochReason.TIMEOUT, EpochReason.TIMEOUT)
    assert len(dec.current_epoch) == 0
    # the closes cover every seen vertex, so a close would reveal them all
    closed = set().union(*(epoch.vertices() for epoch in dec.closed_epochs))
    assert closed == oracle.kg.vertices


def test_surprise_closes_epoch_early():
    pair = hand_pair_l8()
    cap = pair.params.epoch_cap
    oracle = new_oracle(pair, model=QueryModel.VERTEX)
    oracle.query_vertex(16)  # answer (20, 21)
    assert decompose_epochs(oracle.history, cap).closed_epochs == ()
    oracle.query_vertex(18)  # also answers (20, 21): surprise
    dec = decompose_epochs(oracle.history, cap)
    assert len(dec.closed_epochs) == 1
    assert len(dec.closed_epochs[0]) == 2
    assert dec.end_reasons == (EpochReason.SURPRISE,)
    assert dec.closed_epochs[0].vertices() == {16, 18, 20, 21}


def test_lenient_mode_replays_from_cache():
    oracle = new_oracle(hand_pair_l8(), model=QueryModel.VERTEX)
    first = oracle.query_vertex(16)
    again = oracle.query_vertex(16)
    assert first == again == (20, 21)
    assert oracle.vertex_query_count == 1
    assert len(oracle.history) == 1


def test_vertex_range_checks():
    oracle = new_oracle(hand_pair_l8(), model=QueryModel.VERTEX)
    with pytest.raises(VertexOutOfRange):
        oracle.query_vertex(48)
    with pytest.raises(VertexOutOfRange):
        oracle.query_vertex(-1)


def test_model_mismatch_is_rejected():
    pair = hand_pair_l8()
    vertex_oracle = new_oracle(pair, model=QueryModel.VERTEX)
    with pytest.raises(ValueError):
        vertex_oracle.query_adj(16, 1)
    adj_oracle = new_oracle(pair, model=QueryModel.ADJ_LIST)
    with pytest.raises(ValueError):
        adj_oracle.query_vertex(16)


def test_adjacency_slots():
    pair = hand_pair_l8()
    oracle = new_oracle(pair, model=QueryModel.ADJ_LIST)
    a = oracle.query_adj(16, 1)
    b = oracle.query_adj(16, 2)
    assert (a, b) == (20, 21)
    assert oracle.query_adj(44, 1) is None  # sink: slot exists, entry absent
    with pytest.raises(IndexOutOfRange):
        oracle.query_adj(16, 0)
    with pytest.raises(IndexOutOfRange):
        oracle.query_adj(16, 3)


def test_adjacency_oracle_has_no_transcript():
    # adjacency answers are single entries and are not recorded, so a
    # transcript would read empty however many queries were charged
    oracle = new_oracle(hand_pair_l8(), model=QueryModel.ADJ_LIST)
    for slot in (1, 2):
        oracle.query_adj(16, slot)
    assert oracle.adj_query_count == 2
    with pytest.raises(ValueError, match="adjacency-list"):
        oracle.history
    with pytest.raises(ValueError, match="adjacency-list"):
        oracle.transcript()


def test_adjacency_simulation_costs_factor_d():
    # Reading a full out-list one slot at a time costs at most d adjacency
    # queries per vertex query.
    pair = hand_pair_l8()
    d = pair.params.outdeg
    vertex_oracle = new_oracle(pair, model=QueryModel.VERTEX)
    adj_oracle = new_oracle(pair, model=QueryModel.ADJ_LIST)
    probes = [16, 20, 44, 0, 7]
    for u in probes:
        want = vertex_oracle.query_vertex(u)
        got = []
        for i in range(1, d + 1):
            entry = adj_oracle.query_adj(u, i)
            if entry is None:
                break
            got.append(entry)
        assert tuple(got) == want
    assert adj_oracle.adj_query_count <= d * vertex_oracle.vertex_query_count


def _fresh_records(count, start=0):
    # disjoint answers so no record is a surprise
    recs = []
    v = start
    for _ in range(count):
        recs.append(QueryRecord(v, (v + 1, v + 2)))
        v += 3
    return recs


def test_decompose_short_history_stays_open():
    h = QueryHistory(tuple(_fresh_records(3)))
    dec = decompose_epochs(h, epoch_cap=4)
    assert dec.closed_epochs == ()
    assert len(dec.current_epoch) == 3
    assert dec.epoch_count() == 1


def test_decompose_surprise_at_three():
    recs = _fresh_records(2)
    recs.append(QueryRecord(100, (1, 101)))  # 1 already seen
    recs.extend(_fresh_records(2, start=200))
    dec = decompose_epochs(QueryHistory(tuple(recs)), epoch_cap=10)
    assert len(dec.closed_epochs[0]) == 3
    assert dec.end_reasons[0] is EpochReason.SURPRISE
    assert len(dec.current_epoch) == 2


def test_decompose_surprise_wins_tie_at_cap():
    recs = _fresh_records(2)
    recs.append(QueryRecord(100, (1, 101)))  # surprise lands exactly at cap
    dec = decompose_epochs(QueryHistory(tuple(recs)), epoch_cap=3)
    assert dec.end_reasons == (EpochReason.SURPRISE,)
    assert dec.epoch_count() == 1


def test_decompose_counts_answer_entries_only():
    # Vertex 1 was seen as an answer entry; querying it is no surprise, and
    # neither is the first record's self-loop, but a later answer naming
    # vertex 1 again is a surprise.
    h = QueryHistory(
        (
            QueryRecord(0, (0, 1)),
            QueryRecord(1, (3, 4)),
            QueryRecord(6, (1, 7)),
        )
    )
    dec = decompose_epochs(h, epoch_cap=10)
    assert dec.closed_epochs == (h,)
    assert dec.end_reasons == (EpochReason.SURPRISE,)
    assert len(dec.current_epoch) == 0


def _splits(records, cap):
    """Closed epoch lengths with their reasons, then the current epoch's length."""
    dec = decompose_epochs(QueryHistory(tuple(records)), cap)
    closed = [(len(e), r.value) for e, r in zip(dec.closed_epochs, dec.end_reasons)]
    return closed, len(dec.current_epoch)


def test_decompose_empty_history():
    dec = decompose_epochs(QueryHistory(()), epoch_cap=3)
    assert (dec.closed_epochs, dec.end_reasons) == ((), ())
    assert len(dec.current_epoch) == 0 and dec.epoch_count() == 0


def test_decompose_one_record():
    rec = [QueryRecord(0, (1, 2))]
    assert _splits(rec, 3) == ([], 1)
    assert _splits(rec, 1) == ([(1, "timeout")], 0)
    assert _splits([QueryRecord(4, ())], 2) == ([], 1)  # a sink


def test_decompose_cap_one_closes_every_record():
    recs = [QueryRecord(0, (1,)), QueryRecord(2, (3,)), QueryRecord(4, (0,)), QueryRecord(5, ())]
    assert _splits(recs, 1) == (
        [(1, "timeout"), (1, "timeout"), (1, "surprise"), (1, "timeout")], 0
    )


def test_decompose_every_later_record_a_surprise():
    # The first record has nothing before it; each later one names the
    # vertex queried just before it.
    recs = [QueryRecord(0, (1,))] + [QueryRecord(v, (v - 1,)) for v in range(2, 7)]
    recs[1] = QueryRecord(2, (0,))
    assert _splits(recs, 10) == ([(2, "surprise")] + [(1, "surprise")] * 4, 0)
    assert _splits(recs, 2) == ([(2, "surprise")] + [(1, "surprise")] * 4, 0)


def test_decompose_surprise_on_a_cap_fill_after_a_timeout():
    recs = _fresh_records(3)
    recs.append(QueryRecord(100, (1, 101)))  # 4th record: cap-filling and a surprise
    recs.extend(_fresh_records(3, start=200))
    assert _splits(recs, 2) == ([(2, "timeout"), (2, "surprise"), (2, "timeout")], 1)


def test_decompose_self_loops():
    # A self-loop on a vertex first named by its own record is no surprise;
    # one on a vertex named by an earlier answer is.
    recs = [QueryRecord(5, (5, 6)), QueryRecord(7, (7, 7)), QueryRecord(6, (6,))]
    assert _splits(recs, 10) == ([(3, "surprise")], 0)
    assert _splits(recs[:2], 10) == ([], 2)


def test_decompose_answer_ids_far_above_the_queries():
    big = 2**20
    recs = [QueryRecord(0, (big, big + 3)), QueryRecord(1, (2,)), QueryRecord(2, (big + 3,))]
    assert _splits(recs, 10) == ([(3, "surprise")], 0)
    assert _splits(recs[:2], 10) == ([], 2)
    assert _splits([QueryRecord(big, (big + 1,)), QueryRecord(3, (big,))], 5) == (
        [(2, "surprise")], 0
    )


def test_knowledge_graph_shapes():
    assert knowledge_graph(QueryHistory(())).vertices == set()
    kg = knowledge_graph(QueryHistory((QueryRecord(5, (7, 9)),)))
    assert kg.vertices == {5, 7, 9}
    assert kg.edge_count() == 2
    assert kg.out_of(5) == (7, 9)
    assert kg.parents_of(7) == [5]


def test_full_outdegree_vertices_were_queried():
    pair = hand_pair_l8()
    d = pair.params.outdeg
    oracle = new_oracle(pair, model=QueryModel.VERTEX)
    rng = np.random.default_rng(21)
    for v in rng.permutation(48)[:20]:
        oracle.query_vertex(int(v))
    kg = oracle.kg
    queried = {rec.vertex for rec in oracle.history}
    full = {v for v in kg.vertices if len(kg.out_of(v)) == d}
    assert full <= queried
    # queried vertices are either full or true sinks
    for v in queried:
        assert len(kg.out_of(v)) in (0, d)


def test_detect_cycle_two_cycle():
    history = QueryHistory((QueryRecord(0, (1,)), QueryRecord(1, (0,))))
    kg = knowledge_graph(history)
    cycle = detect_cycle(kg, history[1])
    assert cycle is not None and set(cycle) == {0, 1}
    g = Digraph.from_lists([[1], [0]])
    assert verify_cycle(g, cycle)


def test_detect_cycle_absent():
    history = QueryHistory((QueryRecord(0, (1,)), QueryRecord(1, (2,))))
    kg = knowledge_graph(history)
    assert detect_cycle(kg, history[1]) is None


def test_detect_cycle_longer_loop():
    history = QueryHistory(
        (
            QueryRecord(0, (1, 9)),
            QueryRecord(1, (2, 8)),
            QueryRecord(2, (3, 7)),
            QueryRecord(3, (0, 6)),
        )
    )
    kg = knowledge_graph(history)
    cycle = detect_cycle(kg, history[3])
    assert cycle is not None and set(cycle) == {0, 1, 2, 3}


def test_verify_cycle_rules():
    g = Digraph.from_lists([[1], [0, 2], [0]])
    assert verify_cycle(g, [0, 1])
    assert verify_cycle(g, [1, 2, 0])
    chain = Digraph.from_lists([[1], [2], [3], [0]])
    assert verify_cycle(chain, [0, 1, 2, 3])
    assert not verify_cycle(chain, [0, 1, 2])  # wrap edge 2->0 missing
    assert not verify_cycle(g, [0])
    assert not verify_cycle(g, [0, 0])
    assert not verify_cycle(g, [0, 5])


def test_transcript_records_queries():
    oracle = new_oracle(hand_pair_l8(), model=QueryModel.VERTEX)
    for v in (16, 17, 44, 16, 24):  # a sink, and a replay that is not charged
        oracle.query_vertex(v)
    assert oracle.transcript() == "q 16 : 20 21\nq 17 : 22 23\nq 44 :\nq 24 : 28 29\n"
