"""Structural diagnostics and distribution checks for query transcripts.

Three groups of tools:

* Acyclicity distance: exact minimum feedback arc set on small graphs
  (bitmask DP; the tests check it against a factorial brute force).
  Parallel edges collapse to one for this count.
* Transcript statistics: the epoch rule, surprises, blue surprises,
  longest all-blue paths, ancestor counts.  Queries are grouped into
  epochs of at most L/2; an epoch closes early when a query answer names
  an already-seen vertex (a "surprise").  Only ``_epoch_ends`` applies
  this rule, on arrays of the records: a record is a surprise iff one of
  its answer entries was first named by an earlier record, and the cap
  closes fall at fixed strides between surprises.
* Coloring distributions over an epoch's out-trees: classification into
  the four tree kinds, the product-form sampler over those trees, and an
  exact brute-force conditional enumerator for tiny instances.  The tree
  machinery expects surprise-free epoch knowledge graphs (an unclosed
  epoch, or one closed by timeout); a surprise record can point back into
  an older tree and break the forest shape.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .graphs import BLUE, BRParams, Coloring, Digraph
from .oracle import KnowledgeGraph, Oracle, QueryHistory, QueryModel, knowledge_graph


class TooLarge(ValueError):
    pass


class NotAForest(ValueError):
    pass


class InvalidTreeHeight(ValueError):
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


@dataclass(frozen=True)
class EpochStats:
    num_epochs: int
    num_surprise: int
    num_blue_surprise: int
    max_blue_path_per_epoch: tuple[int, ...]
    max_ancestors_blue: int


def max_blue_path(kg: KnowledgeGraph, coloring: Coloring) -> int:
    """Edge count of the longest directed all-blue path in kg.

    The blue part of an epoch knowledge graph is a forest, where this is
    exact.  If the blue subgraph is cyclic (possible for a whole-run kg),
    the number of blue vertices is returned instead: a documented upper
    bound on any simple path, not the path length itself.
    """
    blue = [v for v in kg.vertices if coloring.is_blue(v)]
    blue_set = set(blue)
    succ = {
        u: [w for w in kg.out_of(u) if w in blue_set] for u in blue if u in kg.out
    }
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


def ancestor_count(kg: KnowledgeGraph, u: int) -> int:
    """Vertices other than u with a directed path to u in kg."""
    parents = kg.in_edges
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
    (vertex, answer) pairs in query order, such as a QueryHistory or
    ``oracle.kg.out.items()``.  Pairs are read into a tuple once and their
    answers into arrays entry by entry.  An oracle's answers are its hidden
    graph's out-lists, so its arrays come from ``kg.out``'s keys and one
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
    rare epoch with such an edge goes to max_blue_path, on a knowledge
    graph of that epoch's pairs.  Ancestor counts come from one pass over
    the SCC condensation of the blue vertices and their ancestors, in which
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
        out = history.kg.out
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
        epoch = knowledge_graph(pairs_at(np.arange(bounds[e], bounds[e + 1])))
        per_epoch[e] = max_blue_path(epoch, coloring)
    closing_blue = layer[vertices[ends[surprise] - 1]] == BLUE
    return EpochStats(
        len(per_epoch),
        int(np.count_nonzero(surprise)),
        int(np.count_nonzero(closing_blue)),
        tuple(per_epoch),
        _max_blue_ancestors(np.repeat(vertices, degrees), targets, layer),
    )


# ---------------------------------------------------------------------------
# tree classification and coloring distributions


class TreeKind(enum.Enum):
    TYPE1 = 1  # root seen before this epoch, revealed red
    TYPE2 = 2  # root seen before this epoch, revealed blue
    TYPE3 = 3  # fresh root, some vertex of the tree is a known sink
    TYPE4 = 4  # fresh root, no known sink


@dataclass(frozen=True)
class TreeType:
    root: int
    kind: TreeKind
    height: int


def _tree_components(kg: KnowledgeGraph):
    seen = kg.vertices
    indeg = dict.fromkeys(seen, 0)
    for v, parents in kg.in_edges.items():
        if len(parents) > 1:
            raise NotAForest(f"vertex {v} has in-degree {len(parents)}")
        indeg[v] = len(parents)
    roots = [v for v, k in indeg.items() if k == 0]
    claimed: set[int] = set()
    comps = []
    for r in sorted(roots):
        depth = {r: 0}
        order = [r]
        frontier = [r]
        while frontier:
            nxt = []
            for u in frontier:
                for w in kg.out_of(u):
                    depth[w] = depth[u] + 1
                    order.append(w)
                    nxt.append(w)
            frontier = nxt
        claimed.update(order)
        comps.append((r, order, depth))
    if claimed != seen:
        stray = sorted(seen - claimed)
        raise NotAForest(f"vertices {stray[:5]} are on cycles (unreachable from any root)")
    return comps


def classify_trees(
    epoch_kg: KnowledgeGraph,
    prior_vkg: set[int],
    revealed: dict[int, int],
) -> list[TreeType]:
    """Type each out-tree of an epoch knowledge graph.

    Kinds split on whether the root was already known before the epoch
    (then its revealed color decides red vs blue) and, for fresh roots,
    on whether the tree contains a known sink.
    """
    out = []
    sinks = epoch_kg.sinks
    for root, order, depth in _tree_components(epoch_kg):
        height = max(depth.values())
        if root in prior_vkg:
            if root not in revealed:
                raise ValueError(f"root {root} was seen before the epoch but has no revealed color")
            kind = TreeKind.TYPE2 if revealed[root] == BLUE else TreeKind.TYPE1
        elif any(v in sinks for v in order):
            kind = TreeKind.TYPE3
        else:
            kind = TreeKind.TYPE4
        out.append(TreeType(root, kind, height))
    return out


def sample_naive_coloring(
    epoch_kg: KnowledgeGraph,
    trees: list[TreeType],
    forced: dict[int, int],
    params: BRParams,
    rng,
) -> dict[int, int]:
    """One draw from the product-form coloring distribution over epoch trees.

    Forced colors (prior revelations plus anything a sink pins down) are
    copied; a fresh sink-free root goes blue with probability
    N/(3N - h*W), else to one of the top L-h red layers uniformly; below a
    blue vertex each child is blue with probability 1/2 or lands in one of
    the top L/2 red layers with probability 1/L each; below red layer i
    every child sits in layer i+1.

    Randomness is consumed one uniform per sampled vertex, trees in
    ascending root order, vertices in breadth-first order within a tree.
    """
    n, layers, width = params.n_blue, params.layers, params.width
    sinks = epoch_kg.sinks
    colors: dict[int, int] = {}

    def assign(v: int, c: int) -> None:
        prior = colors.get(v, forced.get(v))
        if prior is not None and prior != c:
            raise ValueError(f"vertex {v} is pinned to color {prior} but the tree forces {c}")
        colors[v] = c

    for tree in sorted(trees, key=lambda t: t.root):
        root, kind, height = tree.root, tree.kind, tree.height
        if height >= layers:
            raise InvalidTreeHeight(f"tree height {height} with only {layers} layers")

        if kind in (TreeKind.TYPE1, TreeKind.TYPE2):
            root_color = forced[root]
        elif kind is TreeKind.TYPE3:
            sink_depths = set()
            frontier = [(root, 0)]
            while frontier:
                u, depth = frontier.pop()
                if u in sinks:
                    sink_depths.add(depth)
                frontier.extend((w, depth + 1) for w in epoch_kg.out_of(u))
            if len(sink_depths) != 1:
                raise ValueError(f"tree at {root} has sinks at depths {sorted(sink_depths)}")
            k = sink_depths.pop()
            if height > k or layers - k < 1:
                raise InvalidTreeHeight(f"sink depth {k} vs height {height} at {layers} layers")
            root_color = layers - k
        else:
            denom = 3 * n - height * width
            top = layers - height
            u = rng.random()
            if u < n / denom:
                root_color = BLUE
            else:
                root_color = min(top, 1 + int((u - n / denom) / (width / denom)))
        assign(root, root_color)

        frontier = [root]
        while frontier:
            nxt = []
            for parent in frontier:
                pc = colors[parent]
                for child in epoch_kg.out_of(parent):
                    if pc == BLUE:
                        if child in colors or child in forced:
                            assign(child, colors.get(child, forced.get(child)))
                        else:
                            u = rng.random()
                            if u < 0.5:
                                assign(child, BLUE)
                            else:
                                assign(child, min(layers // 2, 1 + int((u - 0.5) * 2 * (layers // 2))))
                    else:
                        if pc >= layers:
                            raise InvalidTreeHeight(f"bottom-layer vertex {parent} has children")
                        assign(child, pc + 1)
                    nxt.append(child)
            frontier = nxt
    return colors


def is_good_partial(colors: dict[int, int], kg: KnowledgeGraph, params: BRParams) -> bool:
    """Edge rules hold and no color class exceeds its capacity."""
    layers, width = params.layers, params.width
    counts: dict[int, int] = {}
    for c in colors.values():
        counts[c] = counts.get(c, 0) + 1
    if counts.get(BLUE, 0) > params.n_blue:
        return False
    if any(counts.get(i, 0) > width for i in range(1, layers + 1)):
        return False
    for u, v in kg.edges():
        if u not in colors or v not in colors:
            continue
        cu, cv = colors[u], colors[v]
        if cu == BLUE:
            if not (cv == BLUE or 1 <= cv <= layers // 2):
                return False
        elif cv != cu + 1:
            return False
    for u in kg.sinks:
        if u in colors and colors[u] != layers:
            return False
    return True


def enumerate_conditional_colorings(
    history: QueryHistory,
    revealed: dict[int, int],
    params: BRParams,
) -> dict[tuple[tuple[int, int], ...], Fraction]:
    """Exact conditional law of the seen vertices' colors given a transcript.

    For a fixed coloring of the seen vertices, the chance that a random
    instance extends it and answers the transcript factorizes: a uniform
    prior term (falling factorials of class capacities) times one ordered
    without-replacement list probability per queried vertex.  Enumerating
    capacity-respecting colorings of the seen set with Fraction weights
    and normalizing gives the conditional exactly.  Colorings are keyed as
    vertex-sorted (vertex, color) tuples.
    """
    if params.v_count > 12 or params.outdeg > 2:
        raise TooLarge("exact enumeration is limited to 12 vertices and outdegree 2")
    n, layers, width, d = params.n_blue, params.layers, params.width, params.outdeg
    total = params.v_count
    kg = knowledge_graph(history)
    seen, parents = kg.vertices, kg.in_edges
    vkg = sorted(seen)
    if not set(revealed) <= seen:
        raise ValueError("revealed colors must concern seen vertices")

    def falling(a: int, k: int) -> int:
        out = 1
        for j in range(k):
            out *= a - j
        return out

    blue_list_prob = Fraction(1, falling(2 * n - 1, d))
    red_list_prob = Fraction(1, falling(width, d))
    capacity = {BLUE: n, **{i: width for i in range(1, layers + 1)}}

    weights: dict[tuple[tuple[int, int], ...], Fraction] = {}
    used = dict.fromkeys(capacity, 0)
    assignment: dict[int, int] = {}

    def edge_ok(cu: int, cv: int) -> bool:
        if cu == BLUE:
            return cv == BLUE or 1 <= cv <= layers // 2
        if cu == layers:
            return False
        return cv == cu + 1

    def consistent_so_far(v: int) -> bool:
        # Checks every constraint whose endpoints are now both assigned.
        cv = assignment[v]
        answer = kg.out.get(v)
        if answer is not None:
            if cv == layers:
                if answer:
                    return False
            elif not answer:
                return False
            for w in answer:
                cw = assignment.get(w)
                if cw is not None and not edge_ok(cv, cw):
                    return False
        for u in parents.get(v, ()):
            cu = assignment.get(u)
            if cu is not None and u != v and not edge_ok(cu, cv):
                return False
        return True

    def weight_of_leaf() -> Fraction:
        prior = Fraction(1, falling(total, len(vkg)))
        for c, k in used.items():
            prior *= falling(capacity[c], k)
        lists = Fraction(1)
        for u in kg.out:
            cu = assignment[u]
            if cu == BLUE:
                lists *= blue_list_prob
            elif cu < layers:
                lists *= red_list_prob
        return prior * lists

    def recurse(i: int) -> None:
        if i == len(vkg):
            key = tuple(sorted(assignment.items()))
            weights[key] = weights.get(key, Fraction(0)) + weight_of_leaf()
            return
        v = vkg[i]
        options = [revealed[v]] if v in revealed else list(capacity)
        for c in options:
            if used[c] == capacity[c]:
                continue
            assignment[v] = c
            used[c] += 1
            if consistent_so_far(v):
                recurse(i + 1)
            used[c] -= 1
            del assignment[v]

    recurse(0)
    z = sum(weights.values(), Fraction(0))
    if z == 0:
        raise ValueError("transcript is inconsistent with every coloring")
    return {key: w / z for key, w in weights.items()}
