"""Query access to hidden graphs, with bookkeeping the analysis relies on.

Three access models:

* ``VERTEX`` -- a query on u returns u's full ordered out-list.
* ``ADJ_LIST`` -- a query on (u, i) returns the i-th entry of u's list,
  or nothing when the list is shorter.  Repeats are allowed and counted.
* ``COLOR_REVELATION`` -- the vertex model plus an adversary-style color
  feed: queries are grouped into epochs of at most L/2; an epoch closes
  early when a query answer contains an already-seen vertex (a
  "surprise"), and at every close the hidden colors of all vertices seen
  so far are revealed.

A query history never repeats a vertex.  In the default strict mode a
repeat raises; the lenient mode instead returns the cached answer at zero
cost, which the walk-based finders rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

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
        seen: set[int] = set()
        for rec in self.records:
            seen.add(rec.vertex)
            seen.update(rec.answer)
        return seen


class KnowledgeGraph:
    """Everything a history has exposed: seen vertices, answer edges, sinks.

    ``vertices`` is the seen set and ``out`` maps each queried vertex to its
    answer, which makes it the oracle's answer cache too.  ``in_edges`` is
    derived: built from ``out`` on first use after a change and kept until
    the next add.  Can be built incrementally from records or assembled by
    hand for the tree-classification helpers.
    """

    def __init__(self) -> None:
        self.vertices: set[int] = set()
        self.out: dict[int, tuple[int, ...]] = {}
        self.sinks: set[int] = set()
        self._in_edges: dict[int, list[int]] | None = None

    def add_vertex(self, v: int) -> None:
        self.vertices.add(v)

    def add_record(self, rec: QueryRecord) -> None:
        u, answer = rec
        self.vertices.add(u)
        self.vertices.update(answer)
        self.out[u] = answer
        if not answer:
            self.sinks.add(u)
        self._in_edges = None

    def add_edge(self, u: int, v: int) -> None:
        """Append one answer entry v to u's known out-list."""
        self.vertices.update((u, v))
        self.out[u] = self.out.get(u, ()) + (v,)
        self._in_edges = None

    @property
    def in_edges(self) -> dict[int, list[int]]:
        """Parents of each vertex, one per answer entry, in ``out`` order."""
        if self._in_edges is None:
            index: dict[int, list[int]] = {}
            for u, v in self.edges():
                index.setdefault(v, []).append(u)
            self._in_edges = index
        return self._in_edges

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


def knowledge_graph(history: QueryHistory) -> KnowledgeGraph:
    kg = KnowledgeGraph()
    for rec in history:
        kg.add_record(rec)
    return kg


def is_surprise(history: QueryHistory, k: int) -> bool:
    """Whether the k-th record (1-based) answered with an already-seen vertex.

    Only answer entries count; re-encountering the queried vertex itself
    does not.  The first record is never a surprise.
    """
    if not 1 <= k <= len(history):
        raise IndexOutOfRange(f"record index {k} outside 1..{len(history)}")
    seen = history.prefix(k - 1).vertices()
    return any(v in seen for v in history[k - 1].answer)


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

    A query that is both a surprise and the cap-filling query closes its
    epoch with reason SURPRISE.
    """
    if epoch_cap < 1:
        raise ValueError(f"epoch_cap must be >= 1, got {epoch_cap}")
    closed: list[QueryHistory] = []
    reasons: list[EpochReason] = []
    cur: list[QueryRecord] = []
    seen: set[int] = set()
    for rec in history:
        surprise = any(v in seen for v in rec.answer)
        cur.append(rec)
        seen.add(rec.vertex)
        seen.update(rec.answer)
        if surprise or len(cur) == epoch_cap:
            closed.append(QueryHistory(tuple(cur)))
            reasons.append(EpochReason.SURPRISE if surprise else EpochReason.TIMEOUT)
            cur = []
    return EpochDecomposition(tuple(closed), tuple(reasons), QueryHistory(tuple(cur)), epoch_cap)


class Oracle:
    """Query counter and transcript keeper in front of a hidden graph.

    Each query record is stored once, in order; ``kg`` is their knowledge
    graph and the answer cache, and an (end index, reason) pair marks each
    closed epoch whenever an epoch cap is given.

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
        self._records: list[QueryRecord] = []
        self.kg = KnowledgeGraph()
        self._bounds: list[tuple[int, EpochReason]] = []
        self._epoch_start = 0  # record index where the open epoch begins
        self.revealed: dict[int, int] = {}

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
        return QueryHistory(tuple(self._records))

    @property
    def epochs(self) -> EpochDecomposition:
        closed = []
        start = 0
        for end, _ in self._bounds:
            closed.append(QueryHistory(tuple(self._records[start:end])))
            start = end
        return EpochDecomposition(
            tuple(closed),
            tuple(reason for _, reason in self._bounds),
            QueryHistory(tuple(self._records[start:])),
            self.epoch_cap if self.epoch_cap is not None else 0,
        )

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
        kg = self.kg
        surprise = not kg.vertices.isdisjoint(answer)
        rec = QueryRecord(u, answer)
        self._records.append(rec)
        kg.add_record(rec)
        self.vertex_query_count += 1

        if self.epoch_cap is not None:
            start = self._epoch_start
            end = len(self._records)
            if surprise or end - start == self.epoch_cap:
                self._bounds.append(
                    (end, EpochReason.SURPRISE if surprise else EpochReason.TIMEOUT)
                )
                self._epoch_start = end
                if self.model is QueryModel.COLOR_REVELATION:
                    # earlier closes revealed everything seen before start
                    epoch = QueryHistory(tuple(self._records[start:]))
                    fresh = [v for v in epoch.vertices() if v not in self.revealed]
                    for v in sorted(fresh):
                        self.revealed[v] = self._coloring.color(v)
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

        Close markers, with the colors each close revealed, appear only in
        the color revelation model.
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
                    body = " ".join(f"{v}={color_token(self.revealed[v])}" for v in fresh)
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
    Pure bookkeeping; costs no queries.
    """
    u, answer = last
    out = kg.out
    # prev[x] = predecessor of x on a shortest path u -> answer entry -> ... -> x.
    prev: dict[int, int] = {}
    frontier = []
    for x in answer:
        if x != u and x not in prev:
            prev[x] = u
            frontier.append(x)
    while frontier:
        nxt = []
        for y in frontier:
            for z in out.get(y, ()):
                if z == u:
                    cycle = [y]
                    while (y := prev[y]) != u:
                        cycle.append(y)
                    cycle.append(u)
                    cycle.reverse()
                    return cycle
                if z not in prev:
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
