"""Cycle finders that see the hidden graph only through an oracle.

Four strategies:

* ``run_random_walk_finder`` -- follow uniform out-steps until the walk
  re-enters its own trail; restart from a random vertex at sinks.
* ``run_birthday_sampler`` -- adjacency-model baseline sampling random
  (vertex, slot) cells and counting answer collisions.
* ``run_algorithm1`` -- find a blue seed and grow an all-blue path with
  walk-based color tests, checking after every head query for a cycle
  through the head in everything learned so far, unless nothing was
  charged since that head's last check.  A test's walks (at most
  ``NUM_WALKS``, 4, by default) leave its start on distinct children and
  stop at a sink or a learned layer, and its verdict is red only when
  every walk agrees.  Each red verdict labels the known vertices below it
  with their layers, each walk that reaches a sink labels the bottom half
  of its path, and later walks stop on a label.  ``run_algorithm2`` is the same
  finder under the name ``alg2`` rows carry; its wall stage is gone.
* ``run_bfs_heuristic`` -- repeated budgeted breadth-first searches from
  random starts.

``wall_identify`` is the one colour test: one walk loop against any layer
map, which its sink walks extend.  ``identify_color`` is ``wall_identify``
over an empty map.  ``build_wall`` builds a red "wall", the BFS frontier a
fixed depth below a red vertex, whose members can calibrate colour tests;
no finder builds walls.

Walk-based finders revisit vertices; the oracle answers a revisit from
its cache at zero query cost.  Every returned cycle is read off the
oracle's knowledge graph, hence consists of real edges; the harness
re-verifies against the hidden graph anyway.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import deque
from dataclasses import dataclass, field

from ._draws import draw_source
from .graphs import BLUE, BRParams
from .oracle import Oracle, QueryModel, detect_cycle

# The default most walks a colour test takes, for alg1, alg2 and the CLI.
# Its walks leave the start on distinct children, which decorrelates them
# enough that four keep false red verdicts about as rare as six walks with
# shared first steps did.
NUM_WALKS = 4


@dataclass
class FinderOutcome:
    """A finder's cycle or None, its queries, why it stopped and its counters.

    ``stop`` is ``"cycle"``, ``"budget"``, ``"step_cap"`` (the budget when
    both ran out), ``"no_seed"`` (alg1, alg2: no vertex can seed a path) or
    ``"exhausted"`` (birthday: every cell sampled; bfs: every repetition run).
    """

    cycle: list[int] | None
    queries_used: int
    stop: str
    aux: dict[str, int] = field(default_factory=dict)

    @property
    def success(self) -> bool:
        return self.cycle is not None


@dataclass(frozen=True)
class ColorEstimate:
    """color is 0 for blue, a layer number for red, None when inconclusive."""

    color: int | None
    walks_used: int

    @property
    def is_blue(self) -> bool:
        return self.color == BLUE

    @property
    def is_red(self) -> bool:
        return self.color is not None and self.color >= 1

    @property
    def is_unknown(self) -> bool:
        return self.color is None


@dataclass(frozen=True)
class Wall:
    layer_estimate: int
    members: frozenset[int]
    origin: int


class _Budget:
    """Query budget plus a raw step cap.

    The step cap exists because revisits cost no queries: a walk looping
    through cached territory must still terminate.  Every finder loop
    counts a step on each pass that may charge nothing, so each loop
    ends.  Callers poll ``exhausted()`` before they charge a query, so the
    budget is never overdrawn.  A colour test's walk loop
    (``_implied_layers``) and a wall build instead get ``ceiling()``, taken
    once as they start, and compare the oracle's vertex-query count with
    it; that is exact, because neither moves ``steps`` or the
    adjacency count, so the comparison agrees with ``exhausted()`` at
    every point of the test or build.
    """

    def __init__(self, oracle: Oracle, max_queries: int, step_cap: int):
        self.oracle = oracle
        self.start = oracle.vertex_query_count + oracle.adj_query_count
        self.max_queries = max_queries
        self.steps = 0
        self.step_cap = step_cap

    def used(self) -> int:
        return self.oracle.vertex_query_count + self.oracle.adj_query_count - self.start

    def exhausted(self) -> bool:
        oracle = self.oracle
        used = oracle.vertex_query_count + oracle.adj_query_count - self.start
        return used >= self.max_queries or self.steps >= self.step_cap

    def ceiling(self) -> int:
        """The vertex-query count at which ``exhausted()`` turns true, while
        ``steps`` and the adjacency count stay where they are now; the
        current count once the step cap is spent."""
        oracle = self.oracle
        if self.steps >= self.step_cap:
            return oracle.vertex_query_count
        return self.start + self.max_queries - oracle.adj_query_count

    def stop(self) -> str:
        """Which limit an ``exhausted()`` budget ran out of; the budget when both did."""
        return "budget" if self.used() >= self.max_queries else "step_cap"


def _with_draw_source(finder):
    """Run a finder on a draw source over its ``rng`` argument, synced back on exit.

    Wraps the finders and ``wall_identify``, which draw through
    ``rng.below``.  Whatever way one ends, a return or an exception, the
    caller's generator is left exactly where ``int(rng.integers(k))``
    draws would have left it.  A draw source passed as ``rng`` is used as
    it is, and its owner syncs it.
    """
    at = list(inspect.signature(finder).parameters).index("rng")

    @functools.wraps(finder)
    def run(*args, **kwargs):
        if len(args) > at:
            rng = args[at]
            draws = draw_source(rng)
            args = (*args[:at], draws, *args[at + 1:])
        elif "rng" in kwargs:
            rng = kwargs["rng"]
            draws = kwargs["rng"] = draw_source(rng)
        else:
            return finder(*args, **kwargs)  # raises the missing-argument TypeError
        if draws is rng:
            return finder(*args, **kwargs)
        try:
            return finder(*args, **kwargs)
        finally:
            draws._put_back()

    return run


@_with_draw_source
def run_random_walk_finder(
    oracle: Oracle,
    max_queries: int,
    rng,
) -> FinderOutcome:
    """Walk until the trail bites itself; the collision closes a cycle.

    One uniform random out-step per move; a sink aborts the trail and a
    fresh uniform start opens a new one.

    Draws equal scalar ``int(rng.integers(k))``, buffered on PCG64 (see
    ``_draws``); rng ends where those draws would leave it, even on a raise.
    """
    if max_queries < 1:
        raise ValueError("max_queries must be >= 1")
    budget = _Budget(oracle, max_queries, step_cap=20 * max_queries)
    aux = {"walks": 0, "restarts": 0, "steps": 0}
    v_count = oracle.v_count
    draw = rng.below
    cur: int | None = None
    trail: set[int] = set()
    while not budget.exhausted():
        if cur is None:
            cur = draw(v_count)
            trail = {cur}
            aux["walks"] += 1
        answer = oracle.query_vertex(cur)
        if not answer:
            aux["restarts"] += 1
            budget.steps += 1  # a cached sink charges nothing, so a restart counts
            cur = None
            continue
        nxt = answer[draw(len(answer))]
        aux["steps"] += 1
        budget.steps += 1
        if nxt in trail:
            cycle = detect_cycle(oracle.kg, cur, answer)
            assert cycle is not None, "trail collision must close a visible cycle"
            return FinderOutcome(cycle, budget.used(), "cycle", aux)
        trail.add(nxt)
        cur = nxt
    return FinderOutcome(None, budget.used(), budget.stop(), aux)


@_with_draw_source
def run_birthday_sampler(
    oracle: Oracle,
    max_queries: int,
    rng,
) -> FinderOutcome:
    """Sample distinct random (vertex, slot) cells in the adjacency model.

    A collision is an answer naming a vertex already seen (as an earlier
    answer or as a sampled vertex); the count lands in aux["collisions"].
    Detected cycles are reported, but this is mainly a statistics
    baseline.

    Draws equal scalar ``int(rng.integers(k))``, buffered on PCG64 (see
    ``_draws``); rng ends where those draws would leave it, even on a raise.
    """
    if oracle.model is not QueryModel.ADJ_LIST:
        raise ValueError("the birthday sampler works in the adjacency-list model")
    if max_queries < 1:
        raise ValueError("max_queries must be >= 1")
    v_count = oracle.v_count
    d = oracle.max_out_degree
    draw = rng.below
    budget = _Budget(oracle, max_queries, step_cap=50 * max_queries + 100)
    aux = {"collisions": 0, "cells": 0}
    partial: dict[int, tuple[int, ...]] = {}  # answer entries found so far, by vertex
    seen: set[int] = set()  # sampled vertices and answers, for the collision count
    seen_cells: set[tuple[int, int]] = set()
    total_cells = v_count * d
    while len(seen_cells) < total_cells and not budget.exhausted():
        budget.steps += 1
        cell = (draw(v_count), 1 + draw(d))
        if cell in seen_cells:
            continue
        seen_cells.add(cell)
        aux["cells"] += 1
        u, i = cell
        v = oracle.query_adj(u, i)
        if v is None:
            seen.add(u)
            continue
        if v in seen:
            aux["collisions"] += 1
        seen.update((u, v))
        partial[u] = partial.get(u, ()) + (v,)
        cycle = detect_cycle(partial, u, (v,))
        if cycle is not None:
            return FinderOutcome(cycle, budget.used(), "cycle", aux)
    stop = "exhausted" if len(seen_cells) == total_cells else budget.stop()
    return FinderOutcome(None, budget.used(), stop, aux)


def _implied_layers(
    oracle: Oracle,
    v: int,
    member_layer: dict[int, int],
    layers: int,
    rng,
    num_walks: int,
    stop_at: int | None,
) -> tuple[list[int], int]:
    """Random walks from v; returns the start layers they imply and the walks tried.

    The first walk draws its first step, an offset r into v's answer, as
    every later step is drawn; walk k (from 0) steps first to child
    (r + k) mod d, with no draw of its own.  On br the order of an answer
    is uniform and independent of the colours, so the first min(num_walks,
    d) walks leave v on a uniform ordered choice of distinct children, for
    one draw a test, and a single walk draws what an unconstrained one
    does.  Walks that share a first edge tend to agree, so distinct first
    edges make a blue start's walks disagree sooner.

    A walk ends at a sink, implying L - steps, or after at least one step
    on a vertex of ``member_layer`` (a wall member, or a layer the finder
    has learned), implying that vertex's layer - steps.  Walks cut short
    after 4L steps or by the query ceiling ``stop_at`` imply nothing.

    A walk that reaches a sink after s steps teaches ``member_layer`` exact
    layers: on br a vertex in layer j > L/2 has parents only in layer
    j - 1, so the walk's last k = min(s, L/2) steps ran down layers
    L - k .. L.  One ``_learn_layers`` call labels the vertex k steps above
    the sink with L - k, and with it the rest of the walk and every known
    vertex below; a sink start gets L.  A blue start's sink walk implies at
    most L/2 - 1, so only a red start in layer L/2 or deeper is labelled.

    At most ``num_walks`` walks.  No walk starts once v has a label in
    ``member_layer``, which ``wall_identify`` then returns as its layer
    (within a test only a sink walk of at most L/2 steps gives v one), or
    once ``_sink_verdict`` is BLUE: a walk that differs from the first, or
    implies a layer outside 1..L, stays in the record, so no walk left can
    undo that verdict.  A red verdict is never settled that way before the
    last walk, since any walk left could still differ.  When earlier walks
    stepped onto wrong labels and disagree, the blue stands, even though a
    later sink walk might have labelled a red start; a blue start is never
    labelled, so only wrong labels can do this.

    stop_at is an oracle meter reading (``vertex_query_count``), None for
    no ceiling; a finder passes its budget's ``_Budget.ceiling()``.  The
    meter is compared with it at each walk start and after each charged
    query, an integer compare with no call; once it is reached the walk
    ends before its next query, though a sink that query found, or a wall
    member one step on, still ends it normally.  A vertex already queried
    is answered straight from the oracle's answer cache, with no call and
    no compare.  The meter moves only at a charged query, and a budget's
    step count not at all during a test, so walks stop exactly where a
    poll of ``_Budget.exhausted()`` before every step would stop them.

    rng is a draw source, which its owner syncs.
    """
    if stop_at is None:
        stop_at = math.inf
    implied = []
    attempted = 0
    out = oracle.kg
    cached = out.get
    half = layers // 2
    max_walk_len = 4 * layers
    below = rng.below
    for walk in range(num_walks):
        if (v in member_layer or _sink_verdict(implied, layers) == BLUE
                or oracle.vertex_query_count >= stop_at):
            break
        attempted += 1
        if not walk:
            children = cached(v)
            if children is None:
                children = oracle.query_vertex(v)
            if not children:
                implied.append(layers)
                _learn_layers(out, member_layer, v, layers, layers)
                break
            offset = below(len(children))
        # False after the first walk, which left v cached
        halted = oracle.vertex_query_count >= stop_at
        cur = children[(offset + walk) % len(children)]
        path = [v, cur]  # path[i] is the vertex after i steps
        steps = 1
        while steps <= max_walk_len:
            if cur in member_layer:
                implied.append(member_layer[cur] - steps)
                break
            if halted:
                break
            answer = cached(cur)
            if answer is None:
                answer = oracle.query_vertex(cur)
                halted = oracle.vertex_query_count >= stop_at
            if not answer:
                implied.append(layers - steps)
                k = min(steps, half)
                _learn_layers(out, member_layer, path[steps - k], layers - k, layers)
                break
            cur = answer[below(len(answer))]
            path.append(cur)
            steps += 1
    return implied, attempted


def _sink_verdict(implied: list[int], layers: int) -> int | None:
    """The colour tests' verdict: the layer all walks imply, if in 1..L; else BLUE."""
    if not implied:
        return None
    layer = implied[0]
    if implied.count(layer) < len(implied) or not 1 <= layer <= layers:
        return BLUE
    return layer


@_with_draw_source
def wall_identify(
    oracle: Oracle,
    v: int,
    member_layer: dict[int, int],
    layers: int,
    rng,
    *,
    num_walks: int = NUM_WALKS,
    stop_at: int | None = None,
) -> ColorEstimate:
    """Colour v by walk lengths against sinks and the labels of ``member_layer``.

    Each walk runs until it steps onto a vertex of ``member_layer`` (a
    wall member or a learned layer) or a sink, for at most 4L steps; the
    terminator's layer minus the step count is the start's implied layer.
    The walks leave v on distinct children while it has unused ones, from
    one drawn offset into its answer (see ``_implied_layers``).
    From a red start every walk implies one fixed value, pinning its layer
    exactly; from a blue start they scatter.  The verdict is red when
    every terminated walk implies one layer in 1..L, blue on any scatter
    or on a layer outside 1..L (only a blue prefix pushes the implied
    value below 1), unknown when no walk terminates.  A start in
    ``member_layer`` gets its layer with no walk.

    Sink walks label the bottom half of their paths in ``member_layer``
    itself (see ``_implied_layers``), so the caller's map keeps them for
    every later test, and later walks stop on them.  A start that its own sink walk
    labels (layer L/2 or deeper) ends the test with that label: that one
    walk's layer, or L for a sink.

    At most ``num_walks`` walks; a test stops once its verdict is settled:
    blue at the first walk that differs from the first or implies a layer
    outside 1..L, or the start's label once it has one.  Any other red
    verdict takes every walk.  Walks charge no query once the oracle's
    ``vertex_query_count`` reaches ``stop_at`` (see ``_implied_layers``),
    so a caller's budget is never overdrawn mid-test; an interrupted walk
    counts as non-terminating.  rng is a numpy Generator or a finder's
    draw source; a Generator ends where scalar ``int(rng.integers(k))``
    draws would leave it, even on a raise.
    """
    if v in member_layer:
        return ColorEstimate(member_layer[v], 0)
    implied, attempted = _implied_layers(oracle, v, member_layer, layers, rng, num_walks, stop_at)
    return ColorEstimate(member_layer.get(v, _sink_verdict(implied, layers)), attempted)


def identify_color(
    oracle: Oracle,
    v: int,
    layers: int,
    rng,
    *,
    num_walks: int = NUM_WALKS,
    stop_at: int | None = None,
) -> ColorEstimate:
    """Estimate a vertex's color from random-walk distances to sinks.

    ``wall_identify`` over a fresh, empty layer map, so walks stop only at
    sinks and at the labels this test's own sink walks teach.
    """
    return wall_identify(oracle, v, {}, layers, rng, num_walks=num_walks, stop_at=stop_at)


def _learn_layers(
    out: dict[int, tuple[int, ...]], member_layer: dict[int, int], v: int, layer: int, layers: int
) -> None:
    """Label red v with ``layer`` and each known vertex below it with its layer.

    A red vertex at layer l points only into layer l + 1, so every child
    named in ``out`` gets its parent's label + 1, queried or not, up to L.
    A vertex keeps the first label it gets, and only newly labelled
    vertices that have been queried are descended into, so the cost is
    O(new labels).  Nothing is queried.
    """
    member_layer[v] = layer
    stack = [v]
    while stack:
        u = stack.pop()
        below = member_layer[u] + 1
        if below > layers:
            continue
        for c in out[u]:
            if c not in member_layer:
                member_layer[c] = below
                if c in out:
                    stack.append(c)


def _grow_blue_path(
    oracle: Oracle,
    rng,
    color_of,
    budget: _Budget,
    aux: dict[str, int],
    skip,
) -> tuple[list[int] | None, str]:
    """Seed search plus depth-first blue path growth: alg1's search.

    color_of(v) -> 0 | layer | None is injected; a vertex is appended only
    on a blue verdict.  Dead ends (all children non-blue) backtrack and
    are never re-entered.  Every head query is followed by a free check,
    counted in aux["cycle_checks"], for a cycle through the head in the
    knowledge graph less ``skip``, and the first one found is returned.
    A head met again at the meter reading of its last check is not
    re-checked: the graph grows only on a charged query and ``skip`` only
    grows, so that check could only repeat its ``None``.
    Gives up ("no_seed"), with no further draw, once every vertex has a
    non-blue verdict or is exhausted while the path is empty, since no
    seed can start a path then.  Returns the cycle or None, and the stop
    reason.  rng is the finder's draw source.
    """
    v_count = oracle.v_count
    draw = rng.below
    verdicts: dict[int, int | None] = {}
    exhausted: set[int] = set()
    pending: dict[int, list[int]] = {}
    unseedable = 0  # vertices with a non-blue verdict, plus exhausted ones

    def cached_color(x: int) -> int | None:
        nonlocal unseedable
        if x not in verdicts:
            verdicts[x] = color_of(x)
            aux["color_ids"] += 1
            if verdicts[x] != BLUE:
                unseedable += 1
        return verdicts[x]

    checked: dict[int, int] = {}  # head -> meter reading at its last cycle check
    path: list[int] = []
    on_path: set[int] = set()
    while not budget.exhausted():
        budget.steps += 1
        if not path:
            if unseedable == v_count:
                return None, "no_seed"
            cand = draw(v_count)
            aux["seeds_tested"] += 1
            if cand in exhausted or cached_color(cand) != BLUE:
                continue
            path = [cand]
            on_path = {cand}
            continue
        head = path[-1]
        answer = oracle.query_vertex(head)
        meter = oracle.vertex_query_count
        if checked.get(head) != meter:
            checked[head] = meter
            aux["cycle_checks"] += 1
            cycle = detect_cycle(oracle.kg, head, answer, skip=skip)
            if cycle is not None:
                return cycle, "cycle"
        queue = pending.setdefault(head, list(answer))
        nxt = None
        while queue and not budget.exhausted():
            c = queue.pop(0)
            if c not in exhausted and c not in on_path and cached_color(c) == BLUE:
                nxt = c
                break
        if nxt is not None:
            path.append(nxt)
            on_path.add(nxt)
            aux["appends"] += 1
        elif not queue:
            exhausted.add(head)
            unseedable += 1
            path.pop()
            on_path.discard(head)
            aux["backtracks"] += 1
    return None, budget.stop()


def build_wall(
    oracle: Oracle,
    v: int,
    depth: int,
    *,
    layer_hint: int | None = None,
    stop_at: int | None = None,
) -> Wall | None:
    """Breadth-first frontier exactly `depth` levels below a red vertex.

    Fails (returns None) if any vertex within the searched levels is a
    sink: the start sat too close to the bottom for the requested depth.
    layer_estimate is layer_hint + depth when a hint is given, else depth.

    Also fails, before querying a frontier vertex (cached or not), once the
    oracle's ``vertex_query_count`` has reached ``stop_at``, a meter
    reading such as ``_Budget.ceiling()``; None means no ceiling.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if stop_at is None:
        stop_at = math.inf
    frontier = {v}
    for _ in range(depth):
        nxt: set[int] = set()
        for u in sorted(frontier):
            if oracle.vertex_query_count >= stop_at:
                return None
            answer = oracle.query_vertex(u)
            if not answer:
                return None
            nxt.update(answer)
        frontier = nxt
    base = layer_hint + depth if layer_hint is not None else depth
    return Wall(base, frozenset(frontier), v)


@_with_draw_source
def run_algorithm1(
    oracle: Oracle,
    params: BRParams,
    rng,
    *,
    budget: int | None = None,
    num_walks: int = NUM_WALKS,
) -> FinderOutcome:
    """Blue-seed search and blue path growth with walk-based colour tests.

    A vertex is coloured with ``wall_identify`` over the finder's layer
    map, which starts empty: walks run until a learned layer or a sink is
    hit, at most 4*L steps each, and the terminator's layer minus the
    step count is the start's implied layer.  Red starts repeat one
    implied value; blue starts scatter.  The verdict is red only when
    every terminated walk implies one layer in 1..L, and a test takes at
    most ``num_walks`` walks, which leave the start on distinct children,
    and stops once its verdict is settled (see ``wall_identify``).
    Learned layers: a red verdict at layer l labels the start with l and
    every vertex known below it with l plus its distance
    (``_learn_layers``), at no query, and walks that reach a sink label
    the bottom half of their paths in the same map, where a vertex keeps
    its first label; a labelled start gets its label with no walk and
    counts in aux["wall_hits"].  After every head query the path checks
    for a cycle through the head, skipping the layer map: its vertices are
    red unless a verdict was wrong, and no cycle passes a red vertex.  A
    head met again with nothing charged since its last check is not
    re-checked (see ``_grow_blue_path``).  aux
    splits colour ids, walks and charged queries by verdict (``blue_*``,
    ``red_*``, ``unknown_*``; a labelled start is red).  Defaults: budget
    100*L*sqrt(N) queries rounded up; the step cap is 40 * budget + 200 * V.

    Draws equal scalar ``int(rng.integers(k))``, buffered on PCG64 (see
    ``_draws``); rng ends where those draws would leave it, even on a raise.
    """
    layers = params.layers
    if budget is None:
        budget = math.ceil(100 * layers * math.sqrt(params.n_blue))
    tracker = _Budget(oracle, budget, step_cap=40 * budget + 200 * params.v_count)

    aux = {
        "walks": 0,
        "color_ids": 0,
        "seeds_tested": 0,
        "appends": 0,
        "backtracks": 0,
        "wall_hits": 0,
        "cycle_checks": 0,
        "blue_color_ids": 0, "red_color_ids": 0, "unknown_color_ids": 0,
        "blue_walks": 0, "red_walks": 0, "unknown_walks": 0,
        "blue_queries": 0, "red_queries": 0, "unknown_queries": 0,
    }
    member_layer: dict[int, int] = {}  # learned layers

    def color_of(x: int) -> int | None:
        charged = oracle.vertex_query_count
        est = wall_identify(
            oracle, x, member_layer, layers, rng,
            num_walks=num_walks, stop_at=tracker.ceiling(),
        )
        if est.walks_used == 0 and est.color is not None:
            aux["wall_hits"] += 1
        aux["walks"] += est.walks_used
        verdict = "red" if est.is_red else "blue" if est.is_blue else "unknown"
        aux[f"{verdict}_color_ids"] += 1
        aux[f"{verdict}_walks"] += est.walks_used
        aux[f"{verdict}_queries"] += oracle.vertex_query_count - charged
        if est.is_red and x not in member_layer:
            _learn_layers(oracle.kg, member_layer, x, est.color, layers)
        return est.color

    cycle, stop = _grow_blue_path(oracle, rng, color_of, tracker, aux, member_layer)
    return FinderOutcome(cycle, tracker.used(), stop, aux)


def run_algorithm2(
    oracle: Oracle,
    params: BRParams,
    rng,
    *,
    budget: int | None = None,
    num_walks: int = NUM_WALKS,
) -> FinderOutcome:
    """``run_algorithm1``, byte for byte, under the name that ``alg2`` rows carry.

    alg2 used to build walls first (a BFS frontier below a sampled red
    vertex, whose members' layers calibrate later walks).  On held-out
    seeds the walls cost queries and saved none, so that stage is gone.
    """
    return run_algorithm1(oracle, params, rng, budget=budget, num_walks=num_walks)


@_with_draw_source
def run_bfs_heuristic(
    oracle: Oracle,
    repetitions: int,
    rng,
    *,
    explore_budget: int | None = None,
    max_queries: int | None = None,
) -> FinderOutcome:
    """Breadth-first searches from random starts, cycle check per query.

    Each repetition explores up to explore_budget vertices, defaulting to
    ceil(repetitions * V / log2 V).

    Draws equal scalar ``int(rng.integers(k))``, buffered on PCG64 (see
    ``_draws``); rng ends where those draws would leave it, even on a raise.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    v_count = oracle.v_count
    if explore_budget is None:
        explore_budget = math.ceil(repetitions * v_count / max(1.0, math.log2(v_count)))
    cap = max_queries if max_queries is not None else repetitions * explore_budget + 1
    budget = _Budget(oracle, cap, step_cap=20 * (repetitions * explore_budget + 1))
    aux = {"reps_run": 0, "explored": 0}
    for _ in range(repetitions):
        if budget.exhausted():
            break
        aux["reps_run"] += 1
        start = rng.below(v_count)
        visited = {start}
        frontier = deque([start])
        explored = 0
        while frontier and explored < explore_budget and not budget.exhausted():
            budget.steps += 1
            u = frontier.popleft()
            answer = oracle.query_vertex(u)
            explored += 1
            aux["explored"] += 1
            cycle = detect_cycle(oracle.kg, u, answer)
            if cycle is not None:
                return FinderOutcome(cycle, budget.used(), "cycle", aux)
            for w in answer:
                if w not in visited:
                    visited.add(w)
                    frontier.append(w)
    stop = budget.stop() if budget.exhausted() else "exhausted"
    return FinderOutcome(None, budget.used(), stop, aux)
