"""Minimum feedback arc sets: an exact subset DP and the brute force it is checked against.

``min_fas_exact`` runs a bitmask dynamic program over vertex subsets and
reaches 22 vertices; ``min_fas_bruteforce`` scores every ordering of the
vertices at once with numpy, so it stops at 9 vertices (9! = 362,880
orderings).  Both count parallel edges once and self-loops never, through
one edge-dedup helper, and both report epsilon = min_fas / (d * V) through
one helper.  Acceptance 3 uses the exact solver to show that small
layered instances are far from acyclic.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from cyclelab import Digraph


class TooLarge(ValueError):
    pass


@dataclass(frozen=True)
class FasResult:
    min_fas: int
    witness_ordering: tuple[int, ...]
    epsilon: Fraction


def _dedup_edges(graph: Digraph) -> list[tuple[int, int]]:
    """The distinct (u, v) edges of graph, sorted."""
    sources, targets = graph.edge_arrays()
    return sorted(set(zip(sources.tolist(), targets.tolist())))


def _epsilon(graph: Digraph, min_fas: int) -> Fraction:
    dn = graph.max_out_degree() * graph.v_count
    return Fraction(min_fas, dn) if dn else Fraction(0)


def backedge_count(graph: Digraph, ordering) -> int:
    """Edges (u, v) with u placed after v; parallel edges count once."""
    pos = {v: i for i, v in enumerate(ordering)}
    return sum(1 for u, v in _dedup_edges(graph) if pos[u] > pos[v])


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


@lru_cache(maxsize=4)
def perm_tables(v_count: int):
    """Every ordering of v_count vertices, and each vertex's position in it."""
    perms = np.array(list(itertools.permutations(range(v_count))), dtype=np.int8)
    positions = np.argsort(perms, axis=1).astype(np.int8)
    perms.setflags(write=False)
    positions.setflags(write=False)
    return perms, positions


def min_fas_bruteforce(graph: Digraph) -> FasResult:
    """Exact minimum by scoring every ordering."""
    v_count = graph.v_count
    if v_count > 9:
        raise TooLarge(f"factorial enumeration supports at most 9 vertices, got {v_count}")
    perms, positions = perm_tables(v_count)
    counts = np.zeros(len(perms), dtype=np.int32)
    for u, v in _dedup_edges(graph):
        counts += positions[:, u] > positions[:, v]
    i = int(np.argmin(counts))
    best = int(counts[i])
    return FasResult(best, tuple(int(x) for x in perms[i]), _epsilon(graph, best))
