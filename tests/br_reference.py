"""Structural check of a generated blue/red pair: the reference the generators are tested against.

``validate_br`` reads the pair through its coloring and
``Digraph.edge_arrays`` and returns every violation it finds as a
string, at most 20 of each kind; an empty list means valid.
"""

import numpy as np

from cyclelab import BLUE, BRPair


def color_token(color: int) -> str:
    """Render a color as ``b`` or ``r<i>``, as validate_br's messages do."""
    return "b" if color == BLUE else f"r{color}"


def validate_br(pair: BRPair) -> list[str]:
    """Structural check of a blue/red pair; returns violations as strings.

    Empty result means valid.  Checks class sizes, out-degrees, entry
    distinctness, self-loops, the sink rule (only bottom-layer vertices may
    have empty lists, and they all must), and the edge color rules.
    """
    p = pair.params
    colors = pair.coloring.layer_by_vertex
    g = pair.graph
    out: list[str] = []

    counts = np.bincount(colors, minlength=p.layers + 1)
    expected = [p.n_blue] + [p.width] * p.layers
    for c, (got, want) in enumerate(zip(counts, expected)):
        if got != want:
            out.append(f"class {color_token(c)}: {got} vertices, expected {want}")

    src, dst = g.edge_arrays()
    degs = np.bincount(src, minlength=g.v_count)
    bad_deg = np.flatnonzero((degs != 0) & (degs != p.outdeg))
    for v in bad_deg[:20]:
        out.append(f"vertex {v}: out-degree {degs[v]} not in {{0, {p.outdeg}}}")

    sinks = degs == 0
    for v in np.flatnonzero(sinks & (colors != p.layers))[:20]:
        out.append(f"vertex {v}: non-red_L sink ({color_token(int(colors[v]))})")
    for v in np.flatnonzero(~sinks & (colors == p.layers))[:20]:
        out.append(f"vertex {v}: red_{p.layers} vertex has out-edges")

    # Per-list distinctness and self-loops, vectorized over full-degree rows.
    full = np.flatnonzero(degs == p.outdeg)
    rows = dst[degs[src] == p.outdeg].reshape(-1, p.outdeg)
    s = np.sort(rows, axis=1)
    for r in np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))[:20]:
        out.append(f"vertex {full[r]}: repeated entry in adjacency list")
    for r in np.flatnonzero((rows == full[:, None]).any(axis=1))[:20]:
        out.append(f"vertex {full[r]}: self-loop")

    cu, cv = colors[src], colors[dst]
    ok = np.where(
        cu == BLUE,
        (cv == BLUE) | ((cv >= 1) & (cv <= p.layers // 2)),
        cv == cu + 1,
    )
    for j in np.flatnonzero(~ok)[:20]:
        out.append(
            f"edge {src[j]}->{dst[j]}: {color_token(int(cu[j]))} -> "
            f"{color_token(int(cv[j]))} not allowed"
        )
    return out
