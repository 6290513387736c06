"""Cycle finders that see the hidden graph only through an oracle.

Five strategies:

* ``run_random_walk_finder`` -- follow uniform out-steps until the walk
  re-enters its own trail; restart from a random vertex at sinks.
* ``run_birthday_sampler`` -- adjacency-model baseline sampling random
  (vertex, slot) cells and counting answer collisions.
* ``run_algorithm1`` -- find a blue seed, grow a long all-blue path with
  walk-based color tests, then wait for the path to close on itself.
* ``run_algorithm2`` -- same growth, but color tests measure walk length
  against pre-built red "walls" instead of walking all the way to sinks.
* ``run_bfs_heuristic`` -- repeated budgeted breadth-first searches from
  random starts.

Walk-based finders revisit vertices; the oracle answers a revisit from
its cache at zero query cost.  Every returned cycle is read off the
oracle's knowledge graph, hence consists of real edges; the harness
re-verifies against the hidden graph anyway.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import Counter, deque
from dataclasses import dataclass, field

from ._draws import draw_source
from .graphs import BLUE, BRParams
from .oracle import KnowledgeGraph, Oracle, QueryModel, QueryRecord, detect_cycle


@dataclass
class FinderOutcome:
    cycle: list[int] | None
    queries_used: int
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
    budget is never overdrawn.  Colour tests and wall builds instead get
    ``ceiling()``, taken once as they start, and compare the oracle's
    vertex-query count with it (see ``_implied_layers`` and
    ``build_wall``); that is exact, because neither moves ``steps`` or the
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


def _with_draw_source(finder):
    """Run a finder on a draw source over its ``rng`` argument, synced back on exit.

    Wraps the five finders and the two colour tests, which draw through
    ``rng.below`` and ``rng.stream``.  Whatever way one ends, a return or
    an exception, the caller's generator is left exactly where
    ``int(rng.integers(k))`` draws would have left it.  A draw source
    passed as ``rng`` is used as it is, and its owner syncs it.
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
    cycle = None
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
            cycle = detect_cycle(oracle.kg, QueryRecord(cur, answer))
            assert cycle is not None, "trail collision must close a visible cycle"
            break
        trail.add(nxt)
        cur = nxt
    return FinderOutcome(cycle, budget.used(), aux)


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
    partial = KnowledgeGraph()
    seen: set[int] = set()  # sampled vertices and answers, for the collision count
    seen_cells: set[tuple[int, int]] = set()
    total_cells = v_count * d
    cycle = None
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
        partial.add_edge(u, v)
        cycle = detect_cycle(partial, QueryRecord(u, (v,)))
        if cycle is not None:
            break
    return FinderOutcome(cycle, budget.used(), aux)


# share of terminated walks that must agree on one layer for wall_identify's
# red verdict; the verdict and its settle rule both read it
_AGREE = 0.8


def _implied_layers(
    oracle: Oracle,
    v: int,
    member_layer: dict[int, int],
    layers: int,
    rng,
    num_walks: int,
    max_walk_len: int,
    stop_at: int | None,
    settled,
) -> tuple[list[int], int]:
    """Random walks from v; returns the start layers they imply and the walks tried.

    A walk ends at a sink, implying L - steps, or on a wall member after at
    least one step, implying that member's layer - steps.  Walks cut short
    by max_walk_len or by the query ceiling ``stop_at`` imply nothing.

    At most ``num_walks`` walks; a test stops once its verdict is settled.
    settled(implied, left, layers) is asked before each walk, with ``left``
    the walks still to go, and a true result means no outcome of those
    walks (any value, or no termination) can change the caller's verdict.

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

    Each step draws from ``rng.stream(len(answer))`` (see ``_draws``),
    reopened only when an answer's length differs from the last one's,
    which never happens on br or brsimple; the draws equal ``below``'s.
    rng is a draw source, which its owner syncs.
    """
    if stop_at is None:
        stop_at = math.inf
    implied = []
    attempted = 0
    cached = oracle.kg.out.get
    stream = rng.stream
    bound = 0  # the bound take() serves; reopened when an answer's length differs
    for left in range(num_walks, 0, -1):
        if settled(implied, left, layers) or oracle.vertex_query_count >= stop_at:
            break
        attempted += 1
        cur = v
        steps = 0
        halted = False
        while steps <= max_walk_len:
            if steps >= 1 and cur in member_layer:
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
                break
            if len(answer) != bound:
                bound = len(answer)
                take = stream(bound)
            cur = answer[take()]
            steps += 1
    return implied, attempted


def _sink_verdict(implied: list[int], layers: int) -> int | None:
    """identify_color's verdict: the layer all walks imply, if in 1..L; else BLUE."""
    if not implied:
        return None
    layer = implied[0]
    if implied.count(layer) < len(implied) or not 1 <= layer <= layers:
        return BLUE
    return layer


def _sink_settled(implied: list[int], left: int, layers: int) -> bool:
    """True once ``_sink_verdict`` is BLUE, which no walk left can undo.

    A walk that differs from the first, or implies a layer outside 1..L,
    stays in the record.  A red verdict is never settled before the last
    walk, since any walk left could still differ.
    """
    return _sink_verdict(implied, layers) == BLUE


@_with_draw_source
def identify_color(
    oracle: Oracle,
    v: int,
    layers: int,
    rng,
    *,
    num_walks: int = 6,
    stop_at: int | None = None,
) -> ColorEstimate:
    """Estimate a vertex's color from random-walk distances to sinks.

    From a red vertex every walk bottoms out after the same number of
    steps, pinning the layer exactly; differing distances prove the start
    is blue.  Walks that never reach a sink within 4L steps are
    discarded; if none terminate the verdict is Unknown.

    At most ``num_walks`` walks; a test stops once its verdict is settled:
    BLUE at the first walk that differs from the first or implies a layer
    outside 1..L (``_sink_settled``).  A red verdict takes every walk.

    Walks charge no query once the oracle's ``vertex_query_count`` reaches
    ``stop_at`` (see ``_implied_layers``), so a caller's budget is never
    overdrawn mid-identification; an interrupted walk counts as
    non-terminating.

    rng is a numpy Generator or a finder's draw source; a Generator ends
    where scalar ``int(rng.integers(k))`` draws would leave it, even on a
    raise.
    """
    implied, attempted = _implied_layers(
        oracle, v, {}, layers, rng, num_walks, 4 * layers, stop_at, _sink_settled
    )
    return ColorEstimate(_sink_verdict(implied, layers), attempted)


def _grow_blue_path(
    oracle: Oracle,
    params: BRParams,
    rng,
    color_of,
    budget: _Budget,
    path_target: int,
    aux: dict[str, int],
) -> list[int] | None:
    """Seed-search plus depth-first blue path growth shared by both stages.

    color_of(v) -> 0 | layer | None is injected; a vertex is appended only
    on a blue verdict.  Dead ends (all children non-blue) backtrack and
    are never re-entered.  Once the path passes path_target, every head
    query is followed by a cycle check; a child already on the path closes
    a cycle at any length.  Gives up, with no further draw, once every
    vertex has a non-blue verdict or is exhausted while the path is empty,
    since no seed can start a path then.  rng is the finder's draw source.
    """
    v_count = int(params.v_count)  # below() needs a Python int
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

    path: list[int] = []
    on_path: set[int] = set()
    while not budget.exhausted():
        budget.steps += 1
        if not path:
            if unseedable == v_count:
                break
            cand = draw(v_count)
            aux["seeds_tested"] += 1
            if cand in exhausted or cached_color(cand) != BLUE:
                continue
            path = [cand]
            on_path = {cand}
            continue
        head = path[-1]
        answer = oracle.query_vertex(head)
        if len(path) >= path_target or any(c in on_path for c in answer):
            cycle = detect_cycle(oracle.kg, QueryRecord(head, answer))
            if cycle is not None:
                return cycle
        if head not in pending:
            pending[head] = list(answer)
        nxt = None
        queue = pending[head]
        while queue and not budget.exhausted():
            c = queue[0]
            if c in exhausted or c in on_path:
                queue.pop(0)
                continue
            if cached_color(c) == BLUE:
                queue.pop(0)
                nxt = c
                break
            queue.pop(0)
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
    return None


def _layered_defaults(
    oracle: Oracle, params: BRParams, budget: int | None, path_target: int | None
) -> tuple[_Budget, int]:
    """The budget tracker and path target of ``run_algorithm1`` and ``run_algorithm2``.

    Defaults: path target 2*sqrt(N) rounded up, budget 100*L*sqrt(N)
    queries rounded up; the step cap is 40 * budget + 200 * V.
    """
    n = params.n_blue
    if path_target is None:
        path_target = math.ceil(2 * math.sqrt(n))
    if budget is None:
        budget = math.ceil(100 * params.layers * math.sqrt(n))
    return _Budget(oracle, budget, step_cap=40 * budget + 200 * params.v_count), path_target


@_with_draw_source
def run_algorithm1(
    oracle: Oracle,
    params: BRParams,
    rng,
    *,
    budget: int | None = None,
    num_walks: int = 6,
    path_target: int | None = None,
) -> FinderOutcome:
    """Blue-seed search, blue path growth, cycle wait.

    Color tests walk to sinks, at most 4*L steps each; at most
    ``num_walks`` walks; a test stops once its verdict is settled (see
    ``identify_color``).  Defaults: path target 2*sqrt(N) rounded up,
    budget 100*L*sqrt(N) queries.

    Draws equal scalar ``int(rng.integers(k))``, buffered on PCG64 (see
    ``_draws``); rng ends where those draws would leave it, even on a raise.
    """
    layers = params.layers
    tracker, path_target = _layered_defaults(oracle, params, budget, path_target)
    aux = {"walks": 0, "color_ids": 0, "seeds_tested": 0, "appends": 0, "backtracks": 0}

    def color_of(x: int) -> int | None:
        est = identify_color(
            oracle, x, layers, rng,
            num_walks=num_walks, stop_at=tracker.ceiling(),
        )
        aux["walks"] += est.walks_used
        return est.color

    cycle = _grow_blue_path(oracle, params, rng, color_of, tracker, path_target, aux)
    return FinderOutcome(cycle, tracker.used(), aux)


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


def default_num_walls(params: BRParams) -> int:
    n, layers = params.n_blue, params.layers
    return max(1, round(n ** 0.25 * layers / math.sqrt(n + layers * layers)))


def default_wall_budget(params: BRParams) -> int:
    return params.width * math.ceil(math.log2(params.width))


@_with_draw_source
def wall_identify(
    oracle: Oracle,
    v: int,
    member_layer: dict[int, int],
    layers: int,
    rng,
    *,
    num_walks: int = 6,
    stop_at: int | None = None,
) -> ColorEstimate:
    """Color a vertex by walk lengths against walls instead of sinks.

    Each walk runs until it steps onto a wall member or a sink, for at
    most 4L steps; the terminator's layer minus the step count is the
    start's implied layer, which is one fixed value for a red start and
    scatters for a blue one.
    Verdict: red when at least 80% of terminated walks agree on a layer
    in 1..L; blue on scatter or on agreement at a layer below 1 (only a
    blue prefix pushes the implied value that low); unknown with fewer
    than two terminated walks.  A start that is itself a wall member gets
    that wall's layer for free.  rng is a numpy Generator or a finder's
    draw source, as in ``identify_color``.

    At most ``num_walks`` walks; a test stops once its verdict is settled
    (``_wall_settled``): red once one layer in 1..L holds 80% of the
    terminated walks plus those left, blue once no layer in 1..L could
    reach 80% even if every walk left implied it.  Walks charge no query
    once the oracle's ``vertex_query_count`` reaches ``stop_at``, as in
    ``identify_color``.
    """
    if v in member_layer:
        return ColorEstimate(member_layer[v], 0)
    implied, attempted = _implied_layers(
        oracle, v, member_layer, layers, rng, num_walks, 4 * layers, stop_at, _wall_settled
    )
    return ColorEstimate(_wall_verdict(implied, layers), attempted)


def _wall_verdict(implied: list[int], layers: int) -> int | None:
    """wall_identify's verdict on the layers its terminated walks imply."""
    if len(implied) < 2:
        return None
    counts = Counter(implied)
    top_val = max(counts, key=lambda val: (counts[val], -val))
    if counts[top_val] / len(implied) >= _AGREE and 1 <= top_val <= layers:
        return top_val
    return BLUE


def _wall_settled(implied: list[int], left: int, layers: int) -> bool:
    """True once ``_wall_verdict`` holds whatever ``left`` more walks do.

    With n walks terminated and c the largest count of one layer in 1..L,
    the most any such layer can end with is c + left of at most n + left
    terminated walks, and the least a layer holding c keeps is c of
    n + left.  So the verdict is red once c / (n + left) reaches _AGREE,
    BLUE once n >= 2 and (c + left) / (n + left) falls short of it, and
    unknown once n + left < 2.
    """
    total = len(implied) + left
    if total < 2:
        return True
    best = max((implied.count(x) for x in implied if 1 <= x <= layers), default=0)
    return best / total >= _AGREE or (len(implied) >= 2 and (best + left) / total < _AGREE)


@_with_draw_source
def run_algorithm2(
    oracle: Oracle,
    params: BRParams,
    rng,
    *,
    num_walls: int | None = None,
    wall_p: int | None = None,
    budget: int | None = None,
    num_walks: int = 6,
    path_target: int | None = None,
) -> FinderOutcome:
    """Wall-building stage, then blue path growth with wall-based colors.

    Stage 1 samples vertices, keeps red ones, and BFS-builds a wall
    floor(log_d P) levels below each (P defaults to W*ceil(log2 W)).
    Stage 2 colors a vertex by walking until a wall or sink is hit: the
    terminator's layer minus the step count is the start's implied layer.
    Red starts repeat one implied value; blue starts scatter.  Verdict is
    red when at least 80% of terminated walks agree on a layer >= 1, blue
    on scatter or agreement at an impossible layer, unknown with fewer
    than two terminated walks.  In both stages a color test takes at most
    ``num_walks`` walks; a test stops once its verdict is settled (see
    ``identify_color`` and ``wall_identify``).  A red start at layer
    l > L - depth is skipped without a build and counted in
    aux["wall_failures"]: its BFS would query layer L, whose vertices
    are sinks, so the build could only fail.  Each stage-1 attempt counts
    one step against the step cap, as it may charge nothing.

    Draws equal scalar ``int(rng.integers(k))``, buffered on PCG64 (see
    ``_draws``); rng ends where those draws would leave it, even on a raise.
    """
    layers = params.layers
    if num_walls is None:
        num_walls = default_num_walls(params)
    if wall_p is None:
        wall_p = default_wall_budget(params)
    tracker, path_target = _layered_defaults(oracle, params, budget, path_target)
    depth = 0
    reach = 1
    while reach * params.outdeg <= wall_p:
        reach *= params.outdeg
        depth += 1

    aux = {
        "walks": 0,
        "color_ids": 0,
        "seeds_tested": 0,
        "appends": 0,
        "backtracks": 0,
        "walls_built": 0,
        "wall_failures": 0,
        "wall_hits": 0,
        "stage1_queries": 0,
        "stage2_queries": 0,
    }
    v_count = int(params.v_count)  # below() needs a Python int

    member_layer: dict[int, int] = {}
    walls: list[Wall] = []
    attempts = 0
    while len(walls) < num_walls and attempts < 30 * num_walls + 60 and not tracker.exhausted():
        attempts += 1
        tracker.steps += 1  # a test through queried vertices charges nothing, so it counts
        cand = rng.below(v_count)
        est = identify_color(
            oracle, cand, layers, rng,
            num_walks=num_walks, stop_at=tracker.ceiling(),
        )
        aux["walks"] += est.walks_used
        if not est.is_red:
            continue
        if est.color > layers - depth:  # the build would reach the sink layer
            aux["wall_failures"] += 1
            continue
        wall = build_wall(oracle, cand, depth, layer_hint=est.color, stop_at=tracker.ceiling())
        if wall is None:
            aux["wall_failures"] += 1
            continue
        walls.append(wall)
        aux["walls_built"] += 1
        for m in wall.members:
            member_layer.setdefault(m, wall.layer_estimate)
    aux["stage1_queries"] = tracker.used()

    def wall_color_of(x: int) -> int | None:
        est = wall_identify(
            oracle, x, member_layer, layers, rng,
            num_walks=num_walks, stop_at=tracker.ceiling(),
        )
        if est.walks_used == 0 and est.color is not None:
            aux["wall_hits"] += 1
        aux["walks"] += est.walks_used
        return est.color

    cycle = _grow_blue_path(oracle, params, rng, wall_color_of, tracker, path_target, aux)
    aux["stage2_queries"] = tracker.used() - aux["stage1_queries"]
    return FinderOutcome(cycle, tracker.used(), aux)


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
            cycle = detect_cycle(oracle.kg, QueryRecord(u, answer))
            if cycle is not None:
                return FinderOutcome(cycle, budget.used(), aux)
            for w in answer:
                if w not in visited:
                    visited.add(w)
                    frontier.append(w)
    return FinderOutcome(None, budget.used(), aux)
