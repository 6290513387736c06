"""Run one workload on several seeds and print each metric's spread.

    python3 perfbench/repeat.py --workload alg1-charged --seeds 0-9

Each seed is a separate ``run.py`` process, run one after another for the
``run_seconds`` that BENCHMARK.json gives.  For every metric it prints the
median of the runs, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median: the figure the bounds in
BENCHMARK.json are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    args = parser.parse_args()
    seconds = str(json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        shares.add((result["failed"], result["attempted"]))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"failed/attempted per run: {sorted(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:28s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
