"""Colouring distributions over an epoch's out-trees: the proof machinery the tests check.

Classification into the four tree kinds, the product-form sampler over
those trees, and an exact brute-force conditional enumerator for tiny
instances; acceptance 9 compares the sampler with the exact law.  The
tree machinery expects surprise-free epoch knowledge graphs (an unclosed
epoch, or one closed by timeout); a surprise record can point back into
an older tree and break the forest shape.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction

from cyclelab import BLUE, BRParams, QueryRecord, TooLarge
from cyclelab.analysis import _in_edges, _seen_set

KG = dict[int, tuple[int, ...]]  # a knowledge graph: queried vertex -> its answer


class NotAForest(ValueError):
    pass


class InvalidTreeHeight(ValueError):
    pass


def sinks(kg: KG) -> set[int]:
    """Queried vertices whose answer was empty."""
    return {u for u, row in kg.items() if not row}


def edges(kg: KG):
    """Every answer edge (u, v), in ``kg`` order."""
    for u, row in kg.items():
        for v in row:
            yield u, v


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


def _tree_components(kg: KG):
    seen = _seen_set(kg)
    indeg = dict.fromkeys(seen, 0)
    for v, parents in _in_edges(kg).items():
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
                for w in kg.get(u, ()):
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
    epoch_kg: KG,
    prior_vkg: set[int],
    revealed: dict[int, int],
) -> list[TreeType]:
    """Type each out-tree of an epoch knowledge graph.

    Kinds split on whether the root was already known before the epoch
    (then its revealed color decides red vs blue) and, for fresh roots,
    on whether the tree contains a known sink.
    """
    out = []
    known_sinks = sinks(epoch_kg)
    for root, order, depth in _tree_components(epoch_kg):
        height = max(depth.values())
        if root in prior_vkg:
            if root not in revealed:
                raise ValueError(f"root {root} was seen before the epoch but has no revealed color")
            kind = TreeKind.TYPE2 if revealed[root] == BLUE else TreeKind.TYPE1
        elif any(v in known_sinks for v in order):
            kind = TreeKind.TYPE3
        else:
            kind = TreeKind.TYPE4
        out.append(TreeType(root, kind, height))
    return out


def sample_naive_coloring(
    epoch_kg: KG,
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
    known_sinks = sinks(epoch_kg)
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
                if u in known_sinks:
                    sink_depths.add(depth)
                frontier.extend((w, depth + 1) for w in epoch_kg.get(u, ()))
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
                for child in epoch_kg.get(parent, ()):
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


def is_good_partial(colors: dict[int, int], kg: KG, params: BRParams) -> bool:
    """Edge rules hold and no color class exceeds its capacity."""
    layers, width = params.layers, params.width
    counts: dict[int, int] = {}
    for c in colors.values():
        counts[c] = counts.get(c, 0) + 1
    if counts.get(BLUE, 0) > params.n_blue:
        return False
    if any(counts.get(i, 0) > width for i in range(1, layers + 1)):
        return False
    for u, v in edges(kg):
        if u not in colors or v not in colors:
            continue
        cu, cv = colors[u], colors[v]
        if cu == BLUE:
            if not (cv == BLUE or 1 <= cv <= layers // 2):
                return False
        elif cv != cu + 1:
            return False
    for u in sinks(kg):
        if u in colors and colors[u] != layers:
            return False
    return True


def enumerate_conditional_colorings(
    history: tuple[QueryRecord, ...],
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
    kg = dict(history)
    seen, parents = _seen_set(kg), _in_edges(kg)
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
        answer = kg.get(v)
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
        for u in kg:
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
