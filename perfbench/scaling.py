"""Fit query exponents of alg1 and alg2 over N = 2^12 ... 2^16 at d = 8.

    python3 perfbench/scaling.py

Runs ``run_experiment`` on trial seeds 0-9 for each finder and size
(auto-chosen layering, deadline off, epoch statistics off since they do
not change query counts) and prints ``fit_scaling``'s exponent and R^2 of log median queries
against log N, with the median queries behind each point.
"""

from __future__ import annotations

import math
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cyclelab import ExperimentConfig, auto_params, fit_scaling, run_experiment  # noqa: E402

SIZES = [2 ** k for k in range(12, 17)]
D = 8
TRIALS = 10


def main() -> int:
    for algo in ("alg1", "alg2"):
        records = []
        for n in SIZES:
            config = ExperimentConfig(
                dist="br", algo=algo, n=n, trials=TRIALS, base_seed=0,
                d=D, time_limit=None, collect_epoch_stats=False,
            )
            rows = run_experiment(config)
            records += rows
            wins = [r.queries for r in rows if r.success]
            print(f"{algo} N=2^{int(math.log2(n))} L={auto_params(n, D).layers}: "
                  f"{len(wins)}/{len(rows)} found, median queries "
                  f"{statistics.median(wins) if wins else float('nan'):.0f}", flush=True)
        fit = fit_scaling(records)
        print(f"{algo}: queries ~ N^{fit.exponent:.3f}, R^2 = {fit.r_squared:.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
