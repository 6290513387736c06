"""Brute-force minimum feedback arc set: the reference min_fas_exact is checked against.

Scores every ordering of the vertices at once with numpy, so it stops at
9 vertices (9! = 362,880 orderings).  Parallel edges count once and
self-loops never, as in min_fas_exact.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from cyclelab import Digraph, FasResult, TooLarge


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
    for u, v in set(graph.edges()):
        counts += positions[:, u] > positions[:, v]
    i = int(np.argmin(counts))
    best = int(counts[i])
    dn = graph.max_out_degree() * v_count
    epsilon = Fraction(best, dn) if dn else Fraction(0)
    return FasResult(best, tuple(int(x) for x in perms[i]), epsilon)
