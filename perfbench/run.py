"""cyclelab benchmark: whole trials through the command-line entry point.

    python3 perfbench/run.py --workload alg1-charged --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload alg1-charged --seed 0 --seconds 25 --trace 1
    python3 perfbench/run.py --quick

A round is one call of ``cyclelab.cli.main`` over the workload's trial
seeds, which come from ``--seed``.  With ``--trace 0`` the round is
repeated, on the same seeds, while another round still fits in
``--seconds``; the end-to-end metrics are the median round time, the
round's charged queries, the process's peak resident memory and the
median set-up time of a fresh process.  With ``--trace 1`` one untraced
round is followed by one traced round of the same seeds; the per-layer
metrics come from the traced one, whose CSV must be byte-identical to the
untraced one's.  Every trial is checked independently (see checks.py),
outside the measured time.  ``--quick`` runs every workload's code path
and every check at small N.  The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import os

# One thread per process: the workloads are single-threaded Python, and a
# BLAS pool sized for the machine would only add noise to the timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Workload -> (entry-point arguments, trials per round, quick-mode arguments).
# A trial's cost varies a lot from seed to seed, so a round needs many
# trials for its totals to repeat within the bounds in BENCHMARK.json: the
# sizes are the largest at which enough trials fit in one 25 s run on a
# 2-core machine.  alg2's trials are the costliest and the most variable,
# so its round is the longest (about 25 s against about 12 s for alg1).
WORKLOADS = {
    # Wide layers (auto L=8, W=512) and d=8: most walk steps are fresh,
    # charged queries, so transcript bookkeeping and post-hoc epoch
    # statistics (ancestor counting) carry the load.
    "alg1-charged": (["--algo", "alg1", "--n", "2048", "--d", "8"], 210,
                     ["--algo", "alg1", "--n", "512", "--d", "8"]),
    # Narrow layers (L=32, W=128) and d=3: walks soon run through red
    # vertices already queried, so most query_vertex calls are free cached
    # replays.
    "alg1-cached": (["--algo", "alg1", "--n", "2048", "--layers", "32", "--d", "3"], 115,
                    ["--algo", "alg1", "--n", "512", "--layers", "32", "--d", "3"]),
    # The layered finder: wall building (stage 1), then wall-based colour
    # tests; instance generation is the largest of the three.
    "alg2-2p14": (["--algo", "alg2", "--n", "16384", "--d", "8"], 87,
                  ["--algo", "alg2", "--n", "2048", "--d", "8"]),
}
QUICK_TRIALS = 3
SETUP_PAIRS = 12
# A fresh interpreter imports the package (and numpy) and parses the
# workload's arguments: everything before the first trial starts.
SETUP_CODE = (
    "import sys\n"
    "from cyclelab.cli import build_parser\n"
    "build_parser().parse_args(sys.argv[1:])\n"
)

PER_LAYER_UNITS = {
    "graphs.gen_s": "s",
    "graphs.auto_params_s": "s",
    "oracle.charged_queries": "count",
    "oracle.charged_us": "us",
    "oracle.cached_steps": "count",
    "oracle.cached_us": "us",
    "oracle.detect_cycle_s": "s",
    "oracle.detect_cycle_calls": "count",
    "oracle.verify_s": "s",
    "finders.s": "s",
    "finders.color_id_s": "s",
    "finders.color_id_self_s": "s",
    "finders.color_ids": "count",
    "finders.walks": "count",
    "finders.wall_build_s": "s",
    "finders.wall_queries": "count",
    "finders.walls_built": "count",
    "finders.wall_failures": "count",
    "finders.path_self_s": "s",
    "finders.append_yield": "ratio",
    "analysis.epoch_stats_s": "s",
    "analysis.decompose_s": "s",
    "analysis.blue_path_s": "s",
    "analysis.ancestors_s": "s",
    "analysis.ancestor_calls": "count",
    "harness.trial_self_s": "s",
    "harness.csv_s": "s",
    "harness.csv_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _import_package():
    """Import cyclelab from this checkout's src/, or exit without a result."""
    if not (SRC / "cyclelab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cyclelab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cyclelab

    if Path(cyclelab.__file__).resolve().parent != SRC / "cyclelab":
        sys.exit(f"perfbench: imported cyclelab from {cyclelab.__file__}, not {SRC}")


_import_package()

from cyclelab import cli  # noqa: E402
from checks import TrialChecker  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import REF_BURST_S, REF_SPAWN_CODE, REF_SPAWN_S, burst, rescale  # noqa: E402


class Round:
    """One call of the entry point: its output, checks and rescaled times."""

    def __init__(self, elapsed: float, csv_text: str, checker: TrialChecker, trials: int):
        self.csv_text = csv_text
        self.checker = checker
        self.trials = trials
        bursts = checker.bursts
        self.default_scale = REF_BURST_S * len(bursts) / sum(bursts)
        scaled = rescale(checker.trial_s, bursts)
        self.scale = [r / t for r, t in zip(scaled, checker.trial_s)]
        # the entry point's own time outside trials: argument parsing, CSV
        rest = elapsed - checker.seconds - sum(checker.trial_s)
        self.raw_s = elapsed - checker.seconds
        self.run_s = sum(scaled) + rest * self.default_scale

    @property
    def queries(self) -> int:
        return sum(f["queries"] for f in self.checker.facts)

    def failed(self) -> int:
        """Trials without a cycle, with a check violated, or never run."""
        bad = {f["seed"] for f in self.checker.facts if f["stop"] != "cycle"}
        bad |= self.checker.bad_seeds
        return len(bad) + max(0, self.trials - len(self.checker.facts))

    def stops(self) -> dict[str, int]:
        out = {"cycle": 0, "budget": 0, "step_cap": 0}
        for f in self.checker.facts:
            out[f["stop"]] += 1
        return out


def run_round(argv: list[str], trials: int, *, tracer: Tracer | None = None,
              keep_ancestor_graph: bool = False) -> Round:
    """One call of the entry point; check and burst time is taken out."""
    checker = TrialChecker(keep_ancestor_graph=keep_ancestor_graph)
    if tracer is not None:
        tracer.install()
    checker.install()  # outside the tracer, so checks never land in a span
    out, err = io.StringIO(), io.StringIO()
    try:
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        elapsed = perf_counter() - t0
    finally:
        checker.uninstall()
        if tracer is not None:
            tracer.uninstall()
    checker.bursts.append(burst())
    if code != 0:
        raise RuntimeError(f"entry point exited with {code}: {err.getvalue().strip()}")
    checker.check_output(out.getvalue(), err.getvalue(), trials)
    return Round(elapsed, out.getvalue(), checker, trials)


def entry_argv(workload_args: list[str], trials: int, seed: int) -> list[str]:
    # Trial seeds are seed*trials ... seed*trials + trials-1, so distinct
    # --seed values give disjoint seed sets.  The deadline is off: the 60 s
    # default would truncate trials at a machine-dependent point.
    return ["--dist", "br", *workload_args, "--trials", str(trials),
            "--seed", str(seed * trials), "--time-limit", "0"]


def measure_setup(argv: list[str], pairs: int = SETUP_PAIRS) -> float:
    """Median wall time of fresh import-and-parse processes, rescaled.

    Each set-up process is followed by a reference process that only starts
    Python and imports numpy (speed.REF_SPAWN_CODE); the median set-up time
    is multiplied by REF_SPAWN_S over the median reference time.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(code: str, *args: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    setup, ref = [], []
    for _ in range(pairs):
        setup.append(spawn(SETUP_CODE, *argv))
        ref.append(spawn(REF_SPAWN_CODE))
    return statistics.median(setup) * REF_SPAWN_S / statistics.median(ref)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def describe(name: str, rnd: Round) -> None:
    print(f"{name}: run_s={rnd.run_s:.3f} raw_s={rnd.raw_s:.3f} queries={rnd.queries} stops={rnd.stops()} "
          f"check_s={rnd.checker.seconds:.3f}")
    for problem in rnd.checker.problems[:10]:
        print(f"  PROBLEM {problem}")


def untraced_run(argv, trials, seconds) -> dict:
    start = perf_counter()
    rounds = [run_round(argv, trials, keep_ancestor_graph=True)]
    # another round only if one more of average length still ends inside --seconds
    while (perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        rounds.append(run_round(argv, trials))
    rss = peak_rss_mb()  # before the ancestor check loads scipy
    first = rounds[0]
    first.checker.check_ancestors(first.csv_text)
    for i, rnd in enumerate(rounds):
        describe(f"round {i}", rnd)
    problems = [p for r in rounds for p in r.checker.problems]
    problems += [f"round {i} CSV differs from round 0"
                 for i, r in enumerate(rounds) if r.csv_text != first.csv_text]
    return {
        "correct": not problems,
        "attempted": trials * len(rounds),
        "failed": sum(r.failed() for r in rounds),
        "metrics": {
            "run_s": {"value": statistics.median(r.run_s for r in rounds), "unit": "s"},
            "queries": {"value": first.queries, "unit": "count"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def traced_run(argv, trials, trace_path: Path | None) -> dict:
    plain = run_round(argv, trials, keep_ancestor_graph=True)
    tracer = Tracer()
    traced = run_round(argv, trials, tracer=tracer)
    plain.checker.check_ancestors(plain.csv_text)
    describe("untraced", plain)
    describe("traced", traced)
    problems = plain.checker.problems + traced.checker.problems
    if traced.csv_text != plain.csv_text:
        problems.append("traced CSV differs from the untraced CSV")
    if tracer.charged_per_trial() != [f["queries"] for f in plain.checker.facts]:
        problems.append("charged queries seen by the tracer differ from the untraced counts")
    if trace_path is not None:
        trace_path.parent.mkdir(exist_ok=True)
        tracer.write(trace_path)
    return {
        "correct": not problems,
        "attempted": 2 * trials,
        "failed": plain.failed() + traced.failed(),
        "metrics": {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                    for name, value in layer_metrics(tracer, traced, plain).items()},
    }


def layer_metrics(tracer: Tracer, traced: Round, plain: Round) -> dict[str, float]:
    tot = tracer.totals(traced.scale, traced.default_scale)

    def calls(*names):
        return sum(tot[n][0] for n in names)

    def incl(*names):
        return sum(tot[n][1] for n in names)

    def self_s(*names):
        return sum(tot[n][2] for n in names)

    def per_call_us(name):
        return incl(name) / calls(name) * 1e6 if calls(name) else 0.0

    def fact_sum(key):
        return sum(f[key] for f in traced.checker.facts)

    finder = ("finders.run_algorithm1", "finders.run_algorithm2")
    color = ("finders.identify_color", "finders.wall_identify")
    color_ids = calls(*color)
    return {
        "graphs.gen_s": incl("graphs.gen_br_pair"),
        "graphs.auto_params_s": incl("graphs.auto_params"),
        "oracle.charged_queries": calls("oracle.query_vertex.charged"),
        "oracle.charged_us": per_call_us("oracle.query_vertex.charged"),
        "oracle.cached_steps": calls("oracle.query_vertex.cached"),
        "oracle.cached_us": per_call_us("oracle.query_vertex.cached"),
        "oracle.detect_cycle_s": incl("oracle.detect_cycle"),
        "oracle.detect_cycle_calls": calls("oracle.detect_cycle"),
        "oracle.verify_s": incl("oracle.verify_cycle"),
        "finders.s": incl(*finder),
        "finders.color_id_s": incl(*color),
        "finders.color_id_self_s": self_s(*color),
        "finders.color_ids": color_ids,
        "finders.walks": tracer.walks,
        "finders.wall_build_s": incl("finders.build_wall"),
        "finders.wall_queries": fact_sum("stage1_queries"),
        "finders.walls_built": fact_sum("walls_built"),
        "finders.wall_failures": fact_sum("wall_failures"),
        "finders.path_self_s": self_s(*finder),
        "finders.append_yield": fact_sum("appends") / color_ids if color_ids else 0.0,
        "analysis.epoch_stats_s": incl("analysis.epoch_stats"),
        "analysis.decompose_s": incl("analysis.decompose_epochs"),
        "analysis.blue_path_s": incl("analysis.max_blue_path"),
        "analysis.ancestors_s": incl("analysis.ancestor_count"),
        "analysis.ancestor_calls": calls("analysis.ancestor_count"),
        "harness.trial_self_s": self_s("harness.run_trial"),
        "harness.csv_s": incl("harness.records_to_csv"),
        "harness.csv_bytes": tracer.csv_bytes,
        "trace.overhead_s": traced.run_s - plain.run_s,
    }


def quick() -> int:
    """Every workload's code path and every check, at small N."""
    ok = True
    for name, (_, _, quick_args) in WORKLOADS.items():
        argv = entry_argv(quick_args, QUICK_TRIALS, 0)
        result = traced_run(argv, QUICK_TRIALS, None)
        print(f"{name}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} setup_s={measure_setup(argv, 3):.3f}")
        ok &= result["correct"] and result["failed"] == 0
    print(json.dumps({"quick": "pass" if ok else "FAIL"}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small-N pass over every workload and check")
    args = parser.parse_args()
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required without --quick")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload_args, trials, _ = WORKLOADS[args.workload]
    argv = entry_argv(workload_args, trials, args.seed)
    print(f"workload {args.workload}: cyclelab {' '.join(argv)}")
    if args.trace:
        trace_path = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        result = traced_run(argv, trials, trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        setup = measure_setup(argv)
        result = untraced_run(argv, trials, args.seconds)
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
