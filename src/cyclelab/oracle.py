"""Query access to hidden graphs, with bookkeeping the analysis relies on.

Three access models:

* ``VERTEX`` -- a query on u returns u's full ordered out-list.
* ``ADJ_LIST`` -- a query on (u, i) returns the i-th entry of u's list,
  or nothing when the list is shorter.  Repeats are allowed and counted.
* ``COLOR_REVELATION`` -- the vertex model plus an adversary-style color
  feed: queries are grouped into epochs of at most L/2; an epoch closes
  early when a query answer contains an already-seen vertex (a
  "surprise"), and at every close the hidden colors of all vertices seen
  so far are revealed.  Only ``_epoch_ends`` applies this rule, on
  arrays of the records: a record is a surprise iff one of its answer
  entries was first named by an earlier record, and the cap closes fall
  at fixed strides between surprises.

A query history never repeats a vertex.  In the default strict mode a
repeat raises; the lenient mode instead returns the cached answer at zero
cost, which the walk-based finders rely on.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .graphs import BRPair, Coloring, Digraph, color_token


class RepeatedQuery(ValueError):
    """Vertex was already queried and the oracle is strict."""


class VertexOutOfRange(ValueError):
    pass


class IndexOutOfRange(ValueError):
    """Adjacency slot index outside 1..d."""


class QueryModel(enum.Enum):
    ADJ_LIST = "adjlist"
    VERTEX = "vertex"
    COLOR_REVELATION = "colorrev"


class EpochReason(enum.Enum):
    SURPRISE = "surprise"
    TIMEOUT = "timeout"


class QueryRecord(NamedTuple):
    """One vertex query and its full answer list (empty for sinks)."""

    vertex: int
    answer: tuple[int, ...]


@dataclass(frozen=True)
class QueryHistory:
    """Ordered sequence of records over distinct vertices."""

    records: tuple[QueryRecord, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def prefix(self, k: int) -> "QueryHistory":
        return QueryHistory(self.records[:k])

    def vertices(self) -> set[int]:
        """VKG: every vertex queried or returned so far."""
        return _seen_set(self.records)


_Pairs = Iterable[tuple[int, tuple[int, ...]]]  # (vertex, answer) in record order


def _seen_set(records: _Pairs) -> set[int]:
    # added record by record, so a set derived from a knowledge graph's
    # out-lists iterates as one kept up to date query by query would
    seen: set[int] = set()
    for u, row in records:
        seen.add(u)
        seen.update(row)
    return seen


def _sink_set(records: _Pairs) -> set[int]:
    return {u for u, row in records if not row}


def _parent_index(records: _Pairs) -> dict[int, list[int]]:
    index: dict[int, list[int]] = {}
    for u, row in records:
        for v in row:
            index.setdefault(v, []).append(u)
    return index


class KnowledgeGraph:
    """Everything a history has exposed: answer edges, seen vertices, sinks.

    ``out`` maps each queried vertex to its answer, in the order they were
    added, and is the only thing stored; it is the oracle's answer cache
    and transcript too.  ``vertices`` (the seen set), ``sinks`` and
    ``in_edges`` are derived: built from ``out`` on their first read after
    a change and kept until the next add.  Can be built incrementally from
    records or assembled by hand for the tree-classification helpers.
    """

    def __init__(self) -> None:
        self.out: dict[int, tuple[int, ...]] = {}
        self._derived: dict[str, object] | None = None

    def add_record(self, rec: tuple[int, tuple[int, ...]]) -> None:
        u, answer = rec
        self.out[u] = answer
        self._derived = None

    def add_edge(self, u: int, v: int) -> None:
        """Append one answer entry v to u's known out-list."""
        self.out[u] = self.out.get(u, ()) + (v,)
        self._derived = None

    def _view(self, name: str, derive):
        derived = self._derived
        if derived is None:
            derived = self._derived = {}
        if name not in derived:
            derived[name] = derive(self.out.items())
        return derived[name]

    @property
    def vertices(self) -> set[int]:
        """VKG: every vertex queried or named in an answer."""
        return self._view("vertices", _seen_set)

    @property
    def sinks(self) -> set[int]:
        """Queried vertices whose answer was empty."""
        return self._view("sinks", _sink_set)

    @property
    def in_edges(self) -> dict[int, list[int]]:
        """Parents of each vertex, one per answer entry, in ``out`` order."""
        return self._view("in_edges", _parent_index)

    def out_of(self, v: int) -> tuple[int, ...]:
        return self.out.get(v, ())

    def parents_of(self, v: int) -> list[int]:
        return self.in_edges.get(v, [])

    def edges(self):
        for u, row in self.out.items():
            for v in row:
                yield u, v

    def edge_count(self) -> int:
        return sum(len(row) for row in self.out.values())


def knowledge_graph(history: _Pairs) -> KnowledgeGraph:
    kg = KnowledgeGraph()
    for rec in history:
        kg.add_record(rec)
    return kg


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
    closed_epochs: tuple[QueryHistory, ...]
    end_reasons: tuple[EpochReason, ...]
    current_epoch: QueryHistory
    epoch_cap: int

    def epoch_count(self) -> int:
        """Number of nonempty epochs, the current one included."""
        return len(self.closed_epochs) + (1 if len(self.current_epoch) else 0)


def decompose_epochs(history: QueryHistory, epoch_cap: int) -> EpochDecomposition:
    """Split a history into surprise/timeout epochs of at most epoch_cap.

    Slices the records at the ends ``_epoch_ends`` computes from their
    arrays; the records after the last close form the current epoch.  A
    query that is both a surprise and the cap-filling query closes its
    epoch with reason SURPRISE.
    """
    if epoch_cap < 1:
        raise ValueError(f"epoch_cap must be >= 1, got {epoch_cap}")
    records = history.records
    ends, surprises = _epoch_ends(_record_arrays(records), epoch_cap)
    closed: list[QueryHistory] = []
    reasons: list[EpochReason] = []
    start = 0
    for end, surprise in zip(ends.tolist(), surprises.tolist()):
        closed.append(QueryHistory(tuple(records[start:end])))
        reasons.append(EpochReason.SURPRISE if surprise else EpochReason.TIMEOUT)
        start = end
    return EpochDecomposition(
        tuple(closed), tuple(reasons), QueryHistory(tuple(records[start:])), epoch_cap
    )


class Oracle:
    """Query counter and transcript keeper in front of a hidden graph.

    A charged query stores its answer in ``kg.out`` and nothing else.  The
    oracle never queries a vertex twice, so ``kg.out`` is at once the answer
    cache and the transcript in query order; ``history`` builds its records
    from it on each read.  The views built on ``history`` (``epochs``,
    ``revealed``, ``transcript``) cost O(q) a read.

    ``hidden_graph``/``hidden_coloring`` exist for harnesses and tests
    (cycle verification, accuracy scoring); finders must not touch them,
    and read the instance's shape from ``v_count`` and ``max_out_degree``.
    """

    def __init__(
        self,
        graph: Digraph,
        model: QueryModel,
        *,
        coloring: Coloring | None = None,
        epoch_cap: int | None = None,
        lenient: bool = False,
    ) -> None:
        if model is QueryModel.COLOR_REVELATION:
            if coloring is None or epoch_cap is None:
                raise ValueError("color revelation model needs a coloring and epoch cap")
        self._graph = graph
        self._coloring = coloring
        self._max_deg = graph.max_out_degree()
        self.model = model
        self.lenient = lenient
        self.epoch_cap = epoch_cap
        self.vertex_query_count = 0
        self.adj_query_count = 0
        self.kg = KnowledgeGraph()

    # -- construction helpers -------------------------------------------

    @property
    def v_count(self) -> int:
        """Number of vertices; queries name vertices 0..v_count-1."""
        return self._graph.v_count

    @property
    def max_out_degree(self) -> int:
        """Longest out-list; adjacency slots run 1..max_out_degree."""
        return self._max_deg

    @property
    def hidden_graph(self) -> Digraph:
        return self._graph

    @property
    def hidden_coloring(self) -> Coloring | None:
        return self._coloring

    @property
    def history(self) -> QueryHistory:
        return QueryHistory(tuple(itertools.starmap(QueryRecord, self.kg.out.items())))

    @property
    def epochs(self) -> EpochDecomposition:
        """decompose_epochs of the history; one open epoch when there is no cap."""
        if self.epoch_cap is None:
            return EpochDecomposition((), (), self.history, 0)
        return decompose_epochs(self.history, self.epoch_cap)

    @property
    def revealed(self) -> dict[int, int]:
        """Every vertex seen up to the last epoch close, with its hidden color.

        ``{}`` outside the color revelation model.  No finder reads it.
        """
        if self.model is not QueryModel.COLOR_REVELATION:
            return {}
        history = self.history
        ends, _ = _epoch_ends(_record_arrays(history.records), self.epoch_cap)
        last = int(ends[-1]) if len(ends) else 0
        seen = history.prefix(last).vertices()
        return {v: self._coloring.color(v) for v in sorted(seen)}

    # -- queries ---------------------------------------------------------

    def query_vertex(self, u: int) -> tuple[int, ...]:
        # Only in-range vertex queries are ever cached (an ADJ_LIST oracle
        # caches nothing), so a cache hit needs neither check.
        cached = self.kg.out.get(u)
        if cached is not None:
            if not self.lenient:
                raise RepeatedQuery(f"vertex {u} was already queried")
            return cached
        if self.model is QueryModel.ADJ_LIST:
            raise ValueError("vertex queries unavailable in the adjacency-list model")
        if not 0 <= u < self._graph.v_count:
            raise VertexOutOfRange(f"vertex {u} outside 0..{self._graph.v_count - 1}")

        answer = self._graph.out_list(u)
        self.kg.add_record((u, answer))
        self.vertex_query_count += 1
        return answer

    def query_adj(self, u: int, i: int) -> int | None:
        """i-th (1-based) entry of u's list, or None past the end."""
        if self.model is not QueryModel.ADJ_LIST:
            raise ValueError("adjacency queries only available in the adjacency-list model")
        if not 0 <= u < self._graph.v_count:
            raise VertexOutOfRange(f"vertex {u} outside 0..{self._graph.v_count - 1}")
        if not 1 <= i <= self._max_deg:
            raise IndexOutOfRange(f"slot {i} outside 1..{self._max_deg}")
        self.adj_query_count += 1
        row = self._graph.out_list(u)
        return row[i - 1] if i <= len(row) else None

    # -- transcripts ------------------------------------------------------

    def transcript(self) -> str:
        """Text dump: `q <u> : <answers>` lines plus epoch close markers.

        Close markers, with the colors each close revealed (read from the
        hidden coloring), appear only in the color revelation model.
        """
        dec = self.epochs
        closes = dec.end_reasons if self.model is QueryModel.COLOR_REVELATION else ()
        lines = []
        shown: set[int] = set()
        for n, epoch in enumerate((*dec.closed_epochs, dec.current_epoch), start=1):
            for rec in epoch:
                body = " ".join(str(v) for v in rec.answer)
                lines.append(f"q {rec.vertex} : {body}".rstrip())
            if n <= len(closes):
                lines.append(f"# epoch {n} closed: {closes[n - 1].value}")
                fresh = sorted(epoch.vertices() - shown)
                shown.update(fresh)
                if fresh:
                    body = " ".join(f"{v}={color_token(self._coloring.color(v))}" for v in fresh)
                    lines.append(f"# reveal {body}")
        return "\n".join(lines) + ("\n" if lines else "")


def new_oracle(
    pair_or_graph: BRPair | Digraph,
    model: QueryModel,
    *,
    lenient: bool = False,
) -> Oracle:
    """Front an instance with the requested access model."""
    if isinstance(pair_or_graph, BRPair):
        return Oracle(
            pair_or_graph.graph,
            model,
            coloring=pair_or_graph.coloring,
            epoch_cap=pair_or_graph.params.epoch_cap,
            lenient=lenient,
        )
    if model is QueryModel.COLOR_REVELATION:
        raise ValueError("color revelation model needs a colored pair")
    return Oracle(pair_or_graph, model, lenient=lenient)


def detect_cycle(kg: KnowledgeGraph, last: QueryRecord) -> list[int] | None:
    """A shortest cycle through ``last.vertex`` visible in the knowledge graph.

    Searches breadth-first forward along ``kg.out`` from every answer entry
    of ``last`` other than the queried vertex, and stops on reaching it; the
    cycle starts at ``last.vertex``.  A self-loop alone is not a cycle.
    Only queried vertices (keys of ``kg.out``) join the frontier: a vertex
    with no known out-edge cannot lead back, and leaving it out changes no
    other vertex's BFS order or predecessor, so the same cycle comes back.
    Pure bookkeeping; costs no queries.
    """
    u, answer = last
    out = kg.out
    # prev[x] = predecessor of x on a shortest path u -> answer entry -> ... -> x.
    prev: dict[int, int] = {}
    frontier = []
    for x in answer:
        if x != u and x not in prev and x in out:
            prev[x] = u
            frontier.append(x)
    while frontier:
        nxt = []
        for y in frontier:
            for z in out[y]:
                if z == u:
                    cycle = [y]
                    while (y := prev[y]) != u:
                        cycle.append(y)
                    cycle.append(u)
                    cycle.reverse()
                    return cycle
                if z not in prev and z in out:
                    prev[z] = y
                    nxt.append(z)
        frontier = nxt
    return None


def verify_cycle(graph: Digraph, cycle: list[int]) -> bool:
    """Check a claimed cycle against the actual graph.

    Requires length >= 2, distinct vertices, and every consecutive pair
    (wrapping around) to be a real edge.
    """
    if len(cycle) < 2 or len(set(cycle)) != len(cycle):
        return False
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if not 0 <= a < graph.v_count or not graph.has_edge(a, b):
            return False
    return True
