"""Query access to hidden graphs, with bookkeeping the analysis relies on.

Two access models:

* ``VERTEX`` -- a query on u returns u's full ordered out-list.
* ``ADJ_LIST`` -- a query on (u, i) returns the i-th entry of u's list,
  or nothing when the list is shorter.  Repeats are allowed and counted.

Both count the paper's one cost, queries.  The epochs of a transcript are
derived after the run (``analysis.decompose_epochs``); the oracle keeps
no epoch state.

The knowledge graph of a vertex-model run is ``Oracle.kg``, a plain dict
from each queried vertex to its answer in query order: the transcript
and the answer cache at once, with no copy kept beside it
(``Oracle.history`` builds its records on each read).  A query history
never repeats a vertex: asking about a vertex again tells a finder
nothing new, so a repeated vertex query is answered from ``kg`` at no
cost, which the walk-based finders rely on.
"""

from __future__ import annotations

import enum
import itertools
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


class Oracle:
    """Query counter and transcript keeper in front of a hidden graph.

    A charged query stores its answer in ``kg``, a dict from each queried
    vertex to its answer, and nothing else.  A vertex already queried is
    answered from ``kg`` at no cost, so ``kg`` is at once the answer cache
    and the transcript in query order; ``history`` builds a tuple of its
    records from it on each read, at O(q) a read.  An ``ADJ_LIST`` oracle
    records no answers, so it has no history and raises ``ValueError``.

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
        self.kg: dict[int, tuple[int, ...]] = {}

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
    def history(self) -> tuple[QueryRecord, ...]:
        """The transcript as records, in query order; ``kg``'s items, copied."""
        if self.model is QueryModel.ADJ_LIST:
            raise ValueError("an adjacency-list oracle records no transcript")
        return tuple(itertools.starmap(QueryRecord, self.kg.items()))

    # -- queries ---------------------------------------------------------

    def query_vertex(self, u: int) -> tuple[int, ...]:
        # Only in-range vertex queries are ever cached (an ADJ_LIST oracle
        # caches nothing), so a cache hit needs neither check.
        cached = self.kg.get(u)
        if cached is not None:
            return cached
        if self.model is QueryModel.ADJ_LIST:
            raise ValueError("vertex queries unavailable in the adjacency-list model")
        if not 0 <= u < self._graph.v_count:
            raise VertexOutOfRange(f"vertex {u} outside 0..{self._graph.v_count - 1}")

        answer = self._graph.out_list(u)
        self.kg[u] = answer
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


def new_oracle(pair_or_graph: BRPair | Digraph, model: QueryModel) -> Oracle:
    """Front an instance with the requested access model."""
    if isinstance(pair_or_graph, BRPair):
        pair = pair_or_graph
        return Oracle(pair.graph, model, coloring=pair.coloring)
    return Oracle(pair_or_graph, model)


def detect_cycle(
    kg: dict[int, tuple[int, ...]], u: int, answer: tuple[int, ...], *, skip=()
) -> list[int] | None:
    """A shortest cycle through ``u`` visible in the knowledge graph ``kg``.

    ``answer`` holds the out-entries of u just learned: its answer after a
    vertex query, or the one entry an adjacency query added.  Searches
    breadth-first forward along ``kg`` from each of them other than u
    itself, and stops on reaching u; the cycle starts at u.  A self-loop
    alone is not a cycle.  Only queried vertices (keys of ``kg``) join the
    frontier: a vertex with no known out-edge cannot lead back, and leaving
    it out changes no other vertex's BFS order or predecessor, so the same
    cycle comes back.  Pure bookkeeping; costs no queries.

    Vertices in ``skip`` never join the frontier either.  On br a red
    vertex points only into the next red layer, so no cycle passes it, and
    skipping red vertices returns the same cycle.
    """
    # prev[x] = predecessor of x on a shortest path u -> answer entry -> ... -> x.
    prev: dict[int, int] = {}
    frontier = []
    for x in answer:
        if x != u and x not in prev and x in kg and x not in skip:
            prev[x] = u
            frontier.append(x)
    while frontier:
        nxt = []
        for y in frontier:
            for z in kg[y]:
                if z == u:
                    cycle = [y]
                    while (y := prev[y]) != u:
                        cycle.append(y)
                    cycle.append(u)
                    cycle.reverse()
                    return cycle
                if z not in prev and z in kg and z not in skip:
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
