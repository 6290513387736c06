"""Paired query counts of two checkouts, seed by seed, at (N, L, d) points.

    python3 scripts/paired_queries.py --src ../parent/src src \\
        --point 5792:8:8 --point 35916:12:8 --seeds 9000-9031 [--alg2] [--json out.json]

For each point and finder (alg1, and alg2 with ``--alg2``) every seed runs
as one ``br`` trial of ``python3 -m cyclelab`` under each ``--src`` tree,
first on ``PYTHONPATH``, as ``scripts/cli_digest.py --src`` runs them, with
epoch statistics off; the trials of one tree and point run in one process.
A line per point gives the median of the per-seed ratios of queries
(after / before) with a 2,000-resample bootstrap 95% interval over seeds,
the seeds where the second tree is lower, and each tree's median queries
and cycles found.  ``--json`` also writes every seed's two query counts.
Two processes run at a time.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

RESAMPLES = 2000


def point(text: str) -> tuple[int, int, int]:
    try:
        n, layers, d = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N:L:d, got {text!r}") from None
    return n, layers, d


def seed_range(text: str) -> range:
    try:
        first, last = (int(part) for part in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected FIRST-LAST, got {text!r}") from None
    if first < 0 or last < first:
        raise argparse.ArgumentTypeError(f"empty or negative seed range {text!r}")
    return range(first, last + 1)


def run_trials(src: Path, algo: str, pt: tuple[int, int, int], seeds: range) -> dict[int, tuple[int, bool]]:
    """Seed -> (queries, found a cycle) for one tree, finder and point."""
    n, layers, d = pt
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    args = ["--algo", algo, "--dist", "br", "--n", str(n), "--layers", str(layers),
            "--d", str(d), "--seed", str(seeds.start), "--trials", str(len(seeds)),
            "--no-epoch-stats"]
    proc = subprocess.run([sys.executable, "-m", "cyclelab", *args],
                          capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: cyclelab {' '.join(args)} failed:\n{proc.stderr}")
    rows = csv.DictReader(io.StringIO(proc.stdout))
    return {int(r["seed"]): (int(r["queries"]), r["success"] == "1") for r in rows}


def summarise(before: dict, after: dict, seeds: range) -> dict:
    old = np.array([before[s][0] for s in seeds], dtype=float)
    new = np.array([after[s][0] for s in seeds], dtype=float)
    ratios = new / old
    draws = np.random.default_rng(0).integers(len(ratios), size=(RESAMPLES, len(ratios)))
    boot = np.median(ratios[draws], axis=1)
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return {
        "median_ratio": float(np.median(ratios)),
        "ci95": [float(lo), float(hi)],
        "lower": int(np.sum(new < old)),
        "equal": int(np.sum(new == old)),
        "seeds": len(ratios),
        "median_queries": [float(np.median(old)), float(np.median(new))],
        "cycles": [sum(before[s][1] for s in seeds), sum(after[s][1] for s in seeds)],
        "queries": {str(s): [before[s][0], after[s][0]] for s in seeds},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, nargs=2, required=True, metavar=("BEFORE", "AFTER"),
                        help="two directories holding the cyclelab package")
    parser.add_argument("--point", type=point, action="append", required=True,
                        help="N:L:d, blue vertices, layers and out-degree; repeatable")
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive seed range FIRST-LAST")
    parser.add_argument("--alg2", action="store_true", help="run alg2 as well as alg1")
    parser.add_argument("--json", type=Path, default=None, help="also write every run here")
    args = parser.parse_args()
    trees = [src.resolve() for src in args.src]
    algos = ["alg1", "alg2"] if args.alg2 else ["alg1"]
    jobs = [(algo, pt, src) for algo in algos for pt in args.point for src in trees]
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(lambda job: run_trials(job[2], job[0], job[1], args.seeds), jobs))
    results = []
    for i in range(0, len(jobs), 2):
        algo, (n, layers, d), _ = jobs[i]
        row = {"algo": algo, "n": n, "layers": layers, "d": d,
               **summarise(runs[i], runs[i + 1], args.seeds)}
        results.append(row)
        lo, hi = row["ci95"]
        print(f"{algo} N={n} L={layers} d={d}: ratio {row['median_ratio']:.3f} "
              f"[{lo:.3f}, {hi:.3f}], lower on {row['lower']}/{row['seeds']} seeds, "
              f"median queries {row['median_queries'][0]:.0f} -> {row['median_queries'][1]:.0f}, "
              f"cycles {row['cycles'][0]} -> {row['cycles'][1]}")
    if args.json is not None:
        args.json.write_text(json.dumps({
            "machine": {"python": platform.python_version(), "numpy": np.__version__,
                        "platform": platform.platform(), "cpus": os.cpu_count()},
            "src": [str(t) for t in trees],
            "seeds": [args.seeds.start, args.seeds.stop - 1],
            "resamples": RESAMPLES,
            "points": results,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
