"""Command line entry point: run a sweep of seeded trials, emit CSV."""

from __future__ import annotations

import argparse
import contextlib
import sys

from .finders import NUM_WALKS
from .harness import (
    ALGORITHMS,
    DISTRIBUTIONS,
    ConfigError,
    ExperimentConfig,
    records_to_csv,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclelab",
        description=(
            "Run cycle-finder trials on random layered or matched digraphs "
            "and write one CSV row per trial."
        ),
    )
    parser.add_argument("--dist", choices=DISTRIBUTIONS, default="br",
                        help="instance distribution (default br)")
    parser.add_argument("--algo", choices=ALGORITHMS, default="walk",
                        help="finder to run (default walk)")
    parser.add_argument("--n", type=int, required=True,
                        help="blue-vertex count for br, vertex count for brsimple")
    parser.add_argument("--layers", type=int, default=None,
                        help="red layer count (br only; default: auto-chosen)")
    parser.add_argument("--d", type=int, default=8,
                        help="outdegree (default 8; at 2 the blue subgraph is critical, "
                             "outside the paper's farness promise)")
    parser.add_argument("--trials", type=int, default=10, help="trial count (default 10)")
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument("--budget", type=int, default=None,
                        help="query budget per trial (default: per-algorithm)")
    parser.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    parser.add_argument("--num-walks", type=int, default=NUM_WALKS,
                        help="alg1, alg2: at most NUM_WALKS walks per color "
                             "identification, which leave the start on distinct "
                             "children; a test stops once its verdict is settled "
                             f"(default {NUM_WALKS})")
    parser.add_argument("--reps", type=int, default=1, help="bfs: repetitions (default 1)")
    parser.add_argument("--explore-budget", type=int, default=None,
                        help="bfs: vertices explored per repetition (default C*V/log2 V)")
    # only 0 (none) is accepted, see ExperimentConfig.time_limit; the flag
    # goes with the next benchmark change
    parser.add_argument("--time-limit", type=float, default=0,
                        help="only 0 (none) is accepted: a trial stops on its query budget")
    parser.add_argument("--no-epoch-stats", action="store_true",
                        help="skip epoch statistics columns")
    parser.add_argument("--timings", action="store_true",
                        help="write real wall-clock ms (breaks byte-identical reruns)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = ExperimentConfig(
        dist=args.dist,
        algo=args.algo,
        n=args.n,
        trials=args.trials,
        base_seed=args.seed,
        layers=args.layers,
        d=args.d,
        budget=args.budget,
        num_walks=args.num_walks,
        reps=args.reps,
        explore_budget=args.explore_budget,
        time_limit=args.time_limit or None,
        collect_epoch_stats=not args.no_epoch_stats,
    )
    try:
        config.validate()
        # opened before the first trial runs, so a path that cannot be
        # written costs no trials; a refused config creates nothing
        out = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    except ConfigError as exc:
        print(f"cyclelab: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cyclelab: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    with out as fh:
        records = run_experiment(config)
        fh.write(records_to_csv(records, timings=args.timings))
    wins = sum(1 for r in records if r.success)
    print(f"cyclelab: {wins}/{len(records)} trials found a cycle", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
