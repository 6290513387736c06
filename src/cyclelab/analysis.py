"""Structural diagnostics for query transcripts.

Two groups of tools:

* Acyclicity distance: exact minimum feedback arc set on small graphs
  (bitmask DP; the tests check it against a factorial brute force).
  Parallel edges collapse to one for this count.
* Transcript statistics: the epoch rule, surprises, blue surprises,
  longest all-blue paths, ancestor counts.  Queries are grouped into
  epochs of at most L/2; an epoch closes early when a query answer names
  an already-seen vertex (a "surprise").  Only ``_epoch_ends`` applies
  this rule, on arrays of the records: a record is a surprise iff one of
  its answer entries was first named by an earlier record, and the cap
  closes fall at fixed strides between surprises.  A knowledge graph is
  a dict from each queried vertex to its answer, in query order, such as
  ``Oracle.kg``; ``_seen_set`` and ``_in_edges`` derive its seen vertices
  and its parents.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .graphs import BLUE, Coloring, Digraph
from .oracle import Oracle, QueryModel, QueryRecord


class TooLarge(ValueError):
    pass


# ---------------------------------------------------------------------------
# feedback arc set


@dataclass(frozen=True)
class FasResult:
    min_fas: int
    witness_ordering: tuple[int, ...]
    epsilon: Fraction


def _dedup_edges(graph: Digraph) -> list[tuple[int, int]]:
    seen = set()
    for u, v in graph.edges():
        seen.add((u, v))
    return sorted(seen)


def backedge_count(graph: Digraph, ordering) -> int:
    """Edges (u, v) with u placed after v; parallel edges count once."""
    pos = {v: i for i, v in enumerate(ordering)}
    return sum(1 for u, v in _dedup_edges(graph) if pos[u] > pos[v])


def _epsilon(graph: Digraph, min_fas: int) -> Fraction:
    dn = graph.max_out_degree() * graph.v_count
    return Fraction(min_fas, dn) if dn else Fraction(0)


def min_fas_exact(graph: Digraph) -> FasResult:
    """Exact minimum feedback arc set by DP over vertex subsets.

    dp[S] is the fewest backedges over orderings of S; appending v last
    adds |out(v) & S| backedges.  Runs in O(2^V * V) with numpy popcount
    waves, so V is capped at 22.
    """
    v_count = graph.v_count
    if v_count > 22:
        raise TooLarge(f"subset DP supports at most 22 vertices, got {v_count}")
    out_mask = np.zeros(v_count, dtype=np.int64)
    for u, v in _dedup_edges(graph):
        out_mask[u] |= 1 << v

    full = (1 << v_count) - 1
    dp = np.full(full + 1, np.iinfo(np.uint16).max, dtype=np.uint16)
    dp[0] = 0
    states = np.arange(full + 1, dtype=np.int64)
    popcounts = np.bitwise_count(states)
    # Wave k holds all subsets of size k; dp of wave k+1 reads only wave k,
    # so plain fancy-indexed minimum is safe (T = S|bit is unique per v).
    waves = [states[popcounts == k] for k in range(v_count)]
    for k in range(v_count):
        wave = waves[k]
        for v in range(v_count):
            bit = 1 << v
            s = wave[(wave & bit) == 0]
            if not len(s):
                continue
            t = s | bit
            cand = dp[s] + np.bitwise_count(out_mask[v] & s).astype(np.uint16)
            dp[t] = np.minimum(dp[t], cand)

    best = int(dp[full])
    order_rev = []
    t = full
    while t:
        for v in range(v_count):
            bit = 1 << v
            if not t & bit:
                continue
            s = t & ~bit
            if int(dp[s]) + int(out_mask[v] & s).bit_count() == int(dp[t]):
                order_rev.append(v)
                t = s
                break
        else:
            raise AssertionError("dp table admits no witness step")
    witness = tuple(reversed(order_rev))
    assert backedge_count(graph, witness) == best
    return FasResult(best, witness, _epsilon(graph, best))


# ---------------------------------------------------------------------------
# transcript statistics


class EpochReason(enum.Enum):
    SURPRISE = "surprise"
    TIMEOUT = "timeout"


def _record_arrays(records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Queried vertices, answer lengths and the flat answer entries, in record order."""
    answers = list(map(itemgetter(1), records))
    vertices = np.fromiter(map(itemgetter(0), records), dtype=np.int64, count=len(records))
    degrees = np.fromiter(map(len, answers), dtype=np.int64, count=len(answers))
    targets = np.fromiter(
        itertools.chain.from_iterable(answers), dtype=np.int64, count=int(degrees.sum())
    )
    return vertices, degrees, targets


def _epoch_ends(
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray], epoch_cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """The epoch rule: the ends of the closes, in order, and which are surprises.

    ``arrays`` is ``_record_arrays(records)``.  An epoch closes after the
    record that makes it epoch_cap records long, or earlier after a
    surprise: a record whose answer names a vertex seen before it, as a
    queried vertex or an answer entry.  Re-encountering the queried vertex
    itself is not a surprise.  An end is the 1-based index of the closing
    record, and a record that is both a surprise and the cap-filling one
    closes as a surprise.

    On arrays: ``np.minimum.at`` over the queried vertices and the answer
    entries gives each vertex's first naming record, in an array sized by
    the largest id, and record k (0-based) is a surprise iff one of its
    entries was first named before k.  Between consecutive surprise ends
    prev < next (with 0 before the first and n + 1 after the last record)
    the cap closes are ``prev + j * epoch_cap`` for j >= 1 below next;
    ``repeat`` and ``cumsum`` lay them out, and each surprise goes in after
    the cap closes before it.  Returns int64 ends and a bool surprise flag
    for each.
    """
    vertices, degrees, targets = arrays
    n = len(vertices)
    entry_rec = np.repeat(np.arange(n), degrees)
    first = np.full(max(vertices.max(initial=-1), targets.max(initial=-1)) + 1, n)
    np.minimum.at(first, vertices, np.arange(n))
    np.minimum.at(first, targets, entry_rec)
    hit = np.zeros(n, dtype=bool)
    hit[entry_rec[first[targets] < entry_rec]] = True
    surprises = np.flatnonzero(hit) + 1
    prev = np.concatenate(([0], surprises))
    caps = (np.append(surprises, n + 1) - prev - 1) // epoch_cap
    upto = np.cumsum(caps)  # cap closes up to each surprise, and in all
    step = np.arange(1, upto[-1] + 1) - np.repeat(upto - caps, caps)
    surprise = np.zeros(upto[-1] + len(surprises), dtype=bool)
    surprise[upto[:-1] + np.arange(len(surprises))] = True
    ends = np.empty(len(surprise), dtype=np.int64)
    ends[surprise] = surprises
    ends[~surprise] = np.repeat(prev, caps) + step * epoch_cap
    return ends, surprise


@dataclass(frozen=True)
class EpochDecomposition:
    closed_epochs: tuple[tuple[QueryRecord, ...], ...]
    end_reasons: tuple[EpochReason, ...]
    current_epoch: tuple[QueryRecord, ...]
    epoch_cap: int


def decompose_epochs(history: Sequence[QueryRecord], epoch_cap: int) -> EpochDecomposition:
    """Split a history into surprise/timeout epochs of at most epoch_cap.

    The history is any sequence of records, such as ``Oracle.history``.
    Slices the records at the ends ``_epoch_ends`` computes from their
    arrays, so each epoch is a tuple of records; the records after the
    last close form the current epoch.  A query that is both a surprise
    and the cap-filling query closes its epoch with reason SURPRISE.
    """
    if epoch_cap < 1:
        raise ValueError(f"epoch_cap must be >= 1, got {epoch_cap}")
    records = tuple(history)
    ends, surprises = _epoch_ends(_record_arrays(records), epoch_cap)
    closed: list[tuple[QueryRecord, ...]] = []
    reasons: list[EpochReason] = []
    start = 0
    for end, surprise in zip(ends.tolist(), surprises.tolist()):
        closed.append(records[start:end])
        reasons.append(EpochReason.SURPRISE if surprise else EpochReason.TIMEOUT)
        start = end
    return EpochDecomposition(tuple(closed), tuple(reasons), records[start:], epoch_cap)


@dataclass(frozen=True)
class EpochStats:
    num_epochs: int
    num_surprise: int
    num_blue_surprise: int
    max_blue_path_per_epoch: tuple[int, ...]
    max_ancestors_blue: int


def _seen_set(kg: dict[int, tuple[int, ...]]) -> set[int]:
    """VKG: every vertex queried or named in an answer.

    Added record by record, so the set iterates as one kept up to date
    query by query would.
    """
    seen: set[int] = set()
    for u, row in kg.items():
        seen.add(u)
        seen.update(row)
    return seen


def _in_edges(kg: dict[int, tuple[int, ...]]) -> dict[int, list[int]]:
    """Parents of each vertex, one per answer entry, in ``kg`` order."""
    index: dict[int, list[int]] = {}
    for u, row in kg.items():
        for v in row:
            index.setdefault(v, []).append(u)
    return index


def max_blue_path(kg: dict[int, tuple[int, ...]], coloring: Coloring) -> int:
    """Edge count of the longest directed all-blue path in kg.

    The blue part of an epoch knowledge graph is a forest, where this is
    exact.  If the blue subgraph is cyclic (possible for a whole-run kg),
    the number of blue vertices is returned instead: a documented upper
    bound on any simple path, not the path length itself.
    """
    blue = [v for v in _seen_set(kg) if coloring.is_blue(v)]
    blue_set = set(blue)
    succ = {u: [w for w in kg[u] if w in blue_set] for u in blue if u in kg}
    indeg = dict.fromkeys(blue, 0)
    for row in succ.values():
        for w in row:
            indeg[w] += 1
    ready = [v for v in blue if indeg[v] == 0]
    dist = dict.fromkeys(blue, 0)
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for w in succ.get(u, ()):
            if dist[u] + 1 > dist[w]:
                dist[w] = dist[u] + 1
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if seen != len(blue):
        return len(blue)
    return max(dist.values(), default=0)


def ancestor_count(kg: dict[int, tuple[int, ...]], u: int) -> int:
    """Vertices other than u with a directed path to u in kg."""
    parents = _in_edges(kg)
    seen = {u}
    frontier = [u]
    while frontier:
        nxt = []
        for y in frontier:
            for x in parents.get(y, ()):
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return len(seen) - 1


def _max_blue_ancestors(sources: np.ndarray, targets: np.ndarray, layer: np.ndarray) -> int:
    """Largest ancestor_count over the blue vertices, by bitset closure over SCCs.

    R is the blue vertices and all their ancestors.  It grows from the
    blue set over the edges into it, and only edges into R are kept; when
    no red vertex points at a blue one (so on every layered instance), R
    is the blue set itself.  A leaf is a vertex of R with no edge out into
    R and exactly one edge into it (so blue, and most of R on a layered
    run): its ancestors are its parent's SCC's closure, so it takes no part
    in the pass below, and its parent's SCC, when emitted, counts the
    closure plus one for it.  An iterative Tarjan over the other vertices'
    parent edges, rooted in ascending order at every vertex of R that has
    an edge in R and is not a leaf, emits each SCC after every SCC that
    reaches it.  Each vertex it visits owns one bit, its discovery index,
    and the closure of an SCC C (the vertices with a path to C, C
    included) is the OR of its members' bits and of its parent SCCs'
    closures, one OR per parent edge.  Shared ancestors are counted once,
    so the count is exact however the parents overlap: a blue v in C has
    the closure's bit count minus one ancestors.  Every SCC of R reaches a
    blue vertex, whose closure holds its own, so the largest closure is a
    blue vertex's; a blue vertex with no edge in R has none.  Each member
    with an edge out into R holds its SCC's closure until every such edge
    has been read, that is, until the last SCC that reads it is emitted;
    none outlives the pass.
    """
    in_r = layer == BLUE  # grows to R
    into = in_r[targets]
    while not in_r[sources[into]].all():
        in_r[sources[into]] = True
        into = in_r[targets]
    src, dst = sources[into], targets[into]
    named, counts = np.unique(dst, return_counts=True)
    has_out = np.zeros(len(layer), dtype=bool)
    has_out[src] = True
    is_leaf = np.zeros(len(layer), dtype=bool)
    is_leaf[named[(counts == 1) & ~has_out[named]]] = True
    cut = is_leaf[dst]
    feeds = set(src[cut].tolist())  # the leaves' parents
    parents: dict[int, list[int]] = {}
    readers: dict[int, int] = {}  # vertex -> its edges into non-leaves not yet read
    for u, w in zip(src[~cut].tolist(), dst[~cut].tolist()):
        parents.setdefault(w, []).append(u)
        readers[u] = readers.get(u, 0) + 1
    has_out[dst] = True  # from here on: has an edge in R
    index: dict[int, int] = {}  # DFS discovery order, also each vertex's bit
    low: dict[int, int] = {}
    comp: dict[int, int] = {}  # vertex -> its SCC's root, set when the SCC is emitted
    closure: dict[int, int] = {}  # vertex -> its SCC's closure bitset, while it has readers
    best = 1
    stack: list[int] = []
    for root in np.flatnonzero(has_out & ~is_leaf).tolist():
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(parents.get(root, ())))]
        while work:
            v, it = work[-1]
            for p in it:
                if p not in index:
                    index[p] = low[p] = len(index)
                    stack.append(p)
                    work.append((p, iter(parents.get(p, ()))))
                    break
                if p not in comp and index[p] < low[v]:
                    low[v] = index[p]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] != index[v]:
                    continue
                bits = 0
                fed = False  # some member is a leaf's parent
                members = []
                while not members or members[-1] != v:
                    x = stack.pop()
                    comp[x] = v
                    members.append(x)
                    bits |= 1 << index[x]
                    fed = fed or x in feeds
                    for p in parents.get(x, ()):
                        readers[p] -= 1
                        if comp.get(p, v) != v:  # a parent still on the stack is in this SCC
                            bits |= closure[p] if readers[p] else closure.pop(p)
                for x in members:
                    if readers.get(x):
                        closure[x] = bits
                best = max(best, bits.bit_count() + fed)
    assert not closure, "a closure outlived its last reader"
    return best - 1


def epoch_stats(
    history: Oracle | Iterable[tuple[int, tuple[int, ...]]],
    coloring: Coloring,
    epoch_cap: int,
) -> EpochStats:
    """Post-hoc epoch/surprise/blue-path accounting for a finished run.

    The transcript is a finished run's oracle, or any iterable of
    (vertex, answer) pairs in query order, such as ``oracle.history`` or
    ``oracle.kg.items()``.  Pairs are read into a tuple once and their
    answers into arrays entry by entry.  An oracle's answers are its hidden
    graph's out-lists, so its arrays come from ``kg``'s keys and one
    gather of those rows (Digraph.rows), and its transcript is not copied;
    an adjacency-list oracle, whose answers are single entries, is refused
    with ValueError.  From the arrays on, both take one path, and a record
    is read again only by the blue walk and the back-edge fallback below.

    Returns what decompose_epochs, max_blue_path of each epoch's knowledge
    graph and ancestor_count of every blue vertex give, without building a
    knowledge graph per epoch or a search per vertex.  The record arrays
    are built once and shared by the epoch rule (_epoch_ends, whose ends
    are where decompose_epochs slices), the blue set and the ancestor
    pass.  Surprise counts are read off the closing records.  Only records
    that query a blue vertex can start a blue edge, so one walk over those
    records alone, each mapped to its epoch by searchsorted over the ends,
    takes each epoch's longest blue path; an epoch none of them falls in
    has 0.  Within an epoch, a blue edge can point back at a vertex queried
    at or before its source only on the closing surprise or as a
    self-loop, so query order is otherwise a topological order of the
    epoch's blue edges and the walk takes the longest path in passing; the
    rare epoch with such an edge goes to max_blue_path, on a dict of that
    epoch's pairs.  Ancestor counts come from one pass over the SCC
    condensation of the blue vertices and their ancestors, in which
    each SCC's ancestor set is a bitset: the OR of its members' bits and
    its parent SCCs' sets, each freed after its last reader.  A leaf, one
    of those vertices with a single edge into it and none out to the
    others, is counted from its parent's set without a search (see
    _max_blue_ancestors).
    """
    if epoch_cap < 1:
        raise ValueError(f"epoch_cap must be >= 1, got {epoch_cap}")
    if isinstance(history, Oracle):
        if history.model is QueryModel.ADJ_LIST:
            raise ValueError("an adjacency-list oracle answers single entries, not out-lists")
        out = history.kg
        vertices = np.fromiter(out, dtype=np.int64, count=len(out))
        degrees, targets = history.hidden_graph.rows(vertices)

        def pairs_at(rows: np.ndarray):
            us = vertices[rows].tolist()
            return zip(us, map(out.__getitem__, us))
    else:
        records = tuple(history)
        vertices, degrees, targets = _record_arrays(records)

        def pairs_at(rows: np.ndarray):
            return map(records.__getitem__, rows.tolist())

    layer = coloring.layer_by_vertex
    ends, surprise = _epoch_ends((vertices, degrees, targets), epoch_cap)
    named = np.concatenate([vertices, targets])
    blue = set(named[layer[named] == BLUE].tolist())
    bounds = [0, *ends.tolist()]
    if bounds[-1] < len(vertices):
        bounds.append(len(vertices))
    per_epoch = [0] * (len(bounds) - 1)
    back: set[int] = set()  # epochs with a blue edge back into the epoch, or a self-loop
    rows = np.flatnonzero(layer[vertices] == BLUE)
    current = -1
    epoch_of = np.searchsorted(ends, rows, side="right").tolist()
    for (u, answer), e in zip(pairs_at(rows), epoch_of):
        if e != current:
            current = e
            dist: dict[int, int] = {}  # longest blue path ending at a blue vertex, this epoch
            done: set[int] = set()  # blue vertices queried this epoch
        done.add(u)
        step = dist.get(u, 0) + 1
        for w in answer:
            if w in done:
                back.add(e)
            elif w in blue and dist.get(w, 0) < step:
                dist[w] = step
                if per_epoch[e] < step:
                    per_epoch[e] = step
    for e in back:
        epoch = dict(pairs_at(np.arange(bounds[e], bounds[e + 1])))
        per_epoch[e] = max_blue_path(epoch, coloring)
    closing_blue = layer[vertices[ends[surprise] - 1]] == BLUE
    return EpochStats(
        len(per_epoch),
        int(np.count_nonzero(surprise)),
        int(np.count_nonzero(closing_blue)),
        tuple(per_epoch),
        _max_blue_ancestors(np.repeat(vertices, degrees), targets, layer),
    )
