"""Query access to hidden graphs, with bookkeeping the analysis relies on.

Two access models:

* ``VERTEX`` -- a query on u returns u's full ordered out-list.
* ``ADJ_LIST`` -- a query on (u, i) returns the i-th entry of u's list,
  or nothing when the list is shorter.  Repeats are allowed and counted.

Both count the paper's one cost, queries.  The epochs of a transcript are
derived after the run (``analysis.decompose_epochs``); the oracle keeps
no epoch state.

A query history never repeats a vertex: asking about a vertex again tells
a finder nothing new, so a repeated vertex query is answered from the
knowledge graph at no cost, which the walk-based finders rely on.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .graphs import BRPair, Coloring, Digraph


class VertexOutOfRange(ValueError):
    pass


class IndexOutOfRange(ValueError):
    """Adjacency slot index outside 1..d."""


class QueryModel(enum.Enum):
    ADJ_LIST = "adjlist"
    VERTEX = "vertex"


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


class KnowledgeGraph:
    """Everything a history has exposed: answer edges, seen vertices, sinks.

    ``out`` maps each queried vertex to its answer, in the order they were
    added, and is the only thing stored; it is the oracle's answer cache
    and transcript too.  ``vertices`` (the seen set), ``sinks`` and
    ``in_edges`` are derived from ``out`` on each read, so a reader that
    loops reads a view once, before its loop.  Can be built incrementally
    from records or assembled by hand for the tree-classification helpers.
    """

    def __init__(self) -> None:
        self.out: dict[int, tuple[int, ...]] = {}

    def add_record(self, rec: tuple[int, tuple[int, ...]]) -> None:
        u, answer = rec
        self.out[u] = answer

    def add_edge(self, u: int, v: int) -> None:
        """Append one answer entry v to u's known out-list."""
        self.out[u] = self.out.get(u, ()) + (v,)

    @property
    def vertices(self) -> set[int]:
        """VKG: every vertex queried or named in an answer."""
        return _seen_set(self.out.items())

    @property
    def sinks(self) -> set[int]:
        """Queried vertices whose answer was empty."""
        return {u for u, row in self.out.items() if not row}

    @property
    def in_edges(self) -> dict[int, list[int]]:
        """Parents of each vertex, one per answer entry, in ``out`` order."""
        index: dict[int, list[int]] = {}
        for u, row in self.out.items():
            for v in row:
                index.setdefault(v, []).append(u)
        return index

    def out_of(self, v: int) -> tuple[int, ...]:
        return self.out.get(v, ())

    def parents_of(self, v: int) -> list[int]:
        """v's parents, from a fresh ``in_edges``; a loop reads ``in_edges`` once."""
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


class Oracle:
    """Query counter and transcript keeper in front of a hidden graph.

    A charged query stores its answer in ``kg.out`` and nothing else.  A
    vertex already queried is answered from ``kg.out`` at no cost, so
    ``kg.out`` is at once the answer cache and the transcript in query
    order; ``history`` builds its records from it on each read.  ``history``
    and ``transcript`` cost O(q) a read.  An ``ADJ_LIST`` oracle records no
    answers, so it has neither and raises ``ValueError`` for both.

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
    ) -> None:
        self._graph = graph
        self._coloring = coloring
        self._max_deg = graph.max_out_degree()
        self.model = model
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
        return QueryHistory(tuple(itertools.starmap(QueryRecord, self._answers().items())))

    # -- queries ---------------------------------------------------------

    def query_vertex(self, u: int) -> tuple[int, ...]:
        # Only in-range vertex queries are ever cached (an ADJ_LIST oracle
        # caches nothing), so a cache hit needs neither check.
        cached = self.kg.out.get(u)
        if cached is not None:
            return cached
        if self.model is QueryModel.ADJ_LIST:
            raise ValueError("vertex queries unavailable in the adjacency-list model")
        if not 0 <= u < self._graph.v_count:
            raise VertexOutOfRange(f"vertex {u} outside 0..{self._graph.v_count - 1}")

        answer = self._graph.out_list(u)
        self.kg.out[u] = answer
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

    def _answers(self) -> dict[int, tuple[int, ...]]:
        if self.model is QueryModel.ADJ_LIST:
            raise ValueError("an adjacency-list oracle records no transcript")
        return self.kg.out

    def transcript(self) -> str:
        """Text dump: one `q <u> : <answers>` line per charged vertex query."""
        return "".join(
            f"q {u} : {' '.join(map(str, answer))}".rstrip() + "\n"
            for u, answer in self._answers().items()
        )


def new_oracle(pair_or_graph: BRPair | Digraph, model: QueryModel) -> Oracle:
    """Front an instance with the requested access model."""
    if isinstance(pair_or_graph, BRPair):
        pair = pair_or_graph
        return Oracle(pair.graph, model, coloring=pair.coloring)
    return Oracle(pair_or_graph, model)


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
