"""Experiment runner: seeded trials, CSV records, scaling fits.

One trial = generate an instance, wrap it in an oracle, run one finder,
re-verify any claimed cycle against the hidden graph, and collect query
and epoch statistics.  Trial i uses seed base_seed + i for both
generation and the finder, so a config reruns byte-identically.  The ms
column is written as 0 unless timings are requested; wall-clock noise
would otherwise break reproducible output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import epoch_stats
from .finders import (
    run_algorithm1,
    run_algorithm2,
    run_bfs_heuristic,
    run_birthday_sampler,
    run_random_walk_finder,
)
from .graphs import (
    BRPair,
    BRParams,
    Coloring,
    Digraph,
    InvalidParams,
    NoValidLayering,
    auto_params,
    gen_br_pair,
    gen_br_simple,
)
from .oracle import QueryModel, new_oracle, verify_cycle

DISTRIBUTIONS = ("br", "brsimple")
ALGORITHMS = ("walk", "birthday", "alg1", "alg2", "bfs")

CSV_COLUMNS = (
    "schema,dist,algo,n,layers,width,d,seed,queries,success,cycle_len,"
    "epochs,surprises,blue_surprises,max_blue_path,max_anc_blue,ms"
)


# each finder option, and the finders that read it; any other finder runs
# the same with or without it, so a non-default value there is refused
_FINDER_OPTIONS = (
    ("walls", ("alg2",)),
    ("wall_p", ("alg2",)),
    ("reps", ("bfs",)),
    ("explore_budget", ("bfs",)),
    ("num_walks", ("alg1", "alg2")),
    ("path_target_mult", ("alg1", "alg2")),
)


class ConfigError(ValueError):
    pass


class InsufficientData(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    dist: str
    algo: str
    n: int
    trials: int
    base_seed: int = 0
    layers: int | None = None
    # d = 8: at d = 2 the blue subgraph has mean out-degree 1, a critical
    # random digraph whose cycles hold a share of the edges that falls
    # toward 0 as N grows, outside the paper's promise of epsilon * d * V
    d: int = 8
    budget: int | None = None
    num_walks: int = 6
    walls: int | None = None
    wall_p: int | None = None
    path_target_mult: float | None = None
    reps: int = 1
    explore_budget: int | None = None
    # only None is accepted: a trial stops on its query budget and step cap,
    # never on the clock.  The field and --time-limit stay because the
    # benchmark scripts pass them; both go with the next benchmark change.
    time_limit: float | None = None
    collect_epoch_stats: bool = True

    def validate(self) -> None:
        if self.dist not in DISTRIBUTIONS:
            raise ConfigError(f"unknown distribution {self.dist!r}")
        if self.algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algo!r}")
        if self.algo in ("alg1", "alg2") and self.dist != "br":
            raise ConfigError(f"{self.algo} needs the layered distribution")
        if self.dist == "brsimple" and self.layers is not None:
            raise ConfigError("layers only apply to the layered distribution")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.trials < 0:
            raise ConfigError("trials must be >= 0")
        if self.base_seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if self.budget is not None and self.budget < 1:
            raise ConfigError("budget must be >= 1")
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        if self.num_walks < 1:
            raise ConfigError("num_walks must be >= 1")
        if self.algo == "alg2" and self.num_walks < 2:
            # wall_identify needs two terminated walks for any verdict
            raise ConfigError("num_walks must be >= 2 for alg2")
        if self.explore_budget is not None and self.explore_budget < 1:
            raise ConfigError("explore_budget must be >= 1")
        if self.time_limit is not None:
            raise ConfigError(
                "time_limit must be none (--time-limit 0): trials stop on the query budget"
            )
        if self.walls is not None and self.walls < 0:
            raise ConfigError("walls must be >= 0")
        if self.wall_p is not None and self.wall_p < 1:
            raise ConfigError("wall_p must be >= 1")
        if self.path_target_mult is not None and self.path_target_mult <= 0:
            raise ConfigError("path_target_mult must be > 0")
        if self.path_target_mult is not None and not math.isfinite(
            self.path_target_mult * math.sqrt(self.n)
        ):
            raise ConfigError("path_target_mult * sqrt(n) must be finite")
        for name, algos in _FINDER_OPTIONS:
            if self.algo not in algos and getattr(self, name) != getattr(ExperimentConfig, name):
                raise ConfigError(f"{name} applies only to {' and '.join(algos)}, not {self.algo}")
        if self.dist == "brsimple" and self.n % 2:
            raise ConfigError(f"brsimple needs an even n, got {self.n}")
        if self.dist == "br":
            _br_params(self)  # the instance shape, checked before any trial runs


@dataclass(frozen=True)
class TrialRecord:
    dist: str
    algo: str
    n: int
    layers: int | None
    width: int | None
    d: int
    seed: int
    queries: int
    success: bool
    cycle_len: int | None
    epochs: int | None
    surprises: int | None
    blue_surprises: int | None
    max_blue_path: int | None
    max_anc_blue: int | None
    ms: float


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


def _br_params(config: ExperimentConfig) -> BRParams:
    try:
        if config.layers is None:
            return auto_params(config.n, config.d)
        if config.layers < 2:
            raise ConfigError(f"layers must be even and >= 2, got {config.layers}")
        if (2 * config.n) % config.layers:
            raise ConfigError(f"layers={config.layers} does not divide {2 * config.n}")
        return BRParams(config.n, config.layers, 2 * config.n // config.layers, config.d)
    except (InvalidParams, NoValidLayering) as exc:
        raise ConfigError(str(exc)) from None


def run_trial(config: ExperimentConfig, seed: int) -> TrialRecord:
    rng = np.random.default_rng(seed)
    params = None
    coloring: Coloring | None = None
    if config.dist == "br":
        params = _br_params(config)
        pair = gen_br_pair(params, rng)
        coloring = pair.coloring
        hidden = pair.graph
        instance: BRPair | Digraph = pair
    else:
        hidden = gen_br_simple(config.n, config.d, rng)
        instance = hidden

    model = QueryModel.ADJ_LIST if config.algo == "birthday" else QueryModel.VERTEX
    oracle = new_oracle(instance, model)
    v_count = hidden.v_count
    path_target = None
    if config.path_target_mult is not None and params is not None:
        path_target = math.ceil(config.path_target_mult * math.sqrt(params.n_blue))

    t0 = time.perf_counter()
    if config.algo == "walk":
        cap = config.budget or math.ceil(10 * math.sqrt(v_count))
        outcome = run_random_walk_finder(oracle, cap, rng)
    elif config.algo == "birthday":
        cap = config.budget or math.ceil(10 * math.sqrt(v_count))
        outcome = run_birthday_sampler(oracle, cap, rng)
    elif config.algo == "alg1":
        outcome = run_algorithm1(
            oracle,
            params,
            rng,
            budget=config.budget,
            num_walks=config.num_walks,
            path_target=path_target,
        )
    elif config.algo == "alg2":
        outcome = run_algorithm2(
            oracle,
            params,
            rng,
            num_walls=config.walls,
            wall_p=config.wall_p,
            budget=config.budget,
            num_walks=config.num_walks,
            path_target=path_target,
        )
    else:
        outcome = run_bfs_heuristic(
            oracle,
            config.reps,
            rng,
            explore_budget=config.explore_budget,
            max_queries=config.budget,
        )
    ms = (time.perf_counter() - t0) * 1000.0

    total_queries = oracle.vertex_query_count + oracle.adj_query_count
    if outcome.queries_used != total_queries:
        raise RuntimeError(
            f"finder reported {outcome.queries_used} queries, oracle counted {total_queries}"
        )
    if outcome.cycle is not None and not verify_cycle(hidden, outcome.cycle):
        raise RuntimeError(f"finder claimed an invalid cycle {outcome.cycle}")

    epochs = surprises = blue_surprises = mbp = anc = None
    if coloring is not None and config.collect_epoch_stats and model is QueryModel.VERTEX:
        stats = epoch_stats(oracle, coloring, params.epoch_cap)
        epochs = stats.num_epochs
        surprises = stats.num_surprise
        blue_surprises = stats.num_blue_surprise
        mbp = max(stats.max_blue_path_per_epoch, default=0)
        anc = stats.max_ancestors_blue

    return TrialRecord(
        dist=config.dist,
        algo=config.algo,
        n=config.n,
        layers=params.layers if params else None,
        width=params.width if params else None,
        d=config.d,
        seed=seed,
        queries=outcome.queries_used,
        success=outcome.cycle is not None,
        cycle_len=len(outcome.cycle) if outcome.cycle is not None else None,
        epochs=epochs,
        surprises=surprises,
        blue_surprises=blue_surprises,
        max_blue_path=mbp,
        max_anc_blue=anc,
        ms=ms,
    )


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    """All trials of a config, in trial order, seeds base_seed + index."""
    config.validate()
    return [run_trial(config, config.base_seed + i) for i in range(config.trials)]


def _cell(value) -> str:
    return "" if value is None else str(value)


def records_to_csv(records, *, timings: bool = False) -> str:
    lines = [CSV_COLUMNS]
    for r in records:
        cells = (
            "v1",
            r.dist,
            r.algo,
            str(r.n),
            _cell(r.layers),
            _cell(r.width),
            str(r.d),
            str(r.seed),
            str(r.queries),
            "1" if r.success else "0",
            _cell(r.cycle_len),
            _cell(r.epochs),
            _cell(r.surprises),
            _cell(r.blue_surprises),
            _cell(r.max_blue_path),
            _cell(r.max_anc_blue),
            str(int(round(r.ms))) if timings else "0",
        )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def fit_scaling(records) -> ScalingFit:
    """Least squares on log size vs log median queries of successful trials."""
    by_size: dict[int, list[int]] = {}
    for r in records:
        if r.success:
            by_size.setdefault(r.n, []).append(r.queries)
    sizes = sorted(s for s, qs in by_size.items() if len(qs) >= 10)
    if len(sizes) < 3:
        raise InsufficientData(
            f"need >= 3 sizes with >= 10 successful trials, have {len(sizes)}"
        )
    xs = np.array([math.log(s) for s in sizes])
    ys = np.array([math.log(float(np.median(by_size[s]))) for s in sizes])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    # flat data leaves ss_tot at rounding-noise scale; that is a perfect fit,
    # not a divide-by-almost-zero
    r2 = 1.0 if ss_tot < 1e-12 else 1.0 - float(np.sum(resid**2)) / ss_tot
    points = tuple((float(x), float(y)) for x, y in zip(xs, ys))
    return ScalingFit(float(slope), float(intercept), r2, points)

