"""Byte-identity check of the command line: one SHA-256 per config.

    python3 scripts/cli_digest.py > new.txt
    python3 scripts/cli_digest.py --src ../parent/src > old.txt
    diff old.txt new.txt

Each config runs ``python3 -m cyclelab`` in a fresh process with ``--src``
first on ``PYTHONPATH`` (default: this checkout's ``src``), and its digest
covers the process's stdout, stderr and exit status.  The configs are every
finder on both distributions at three (n, d) sizes, and on br at four
(n, layers, d) shapes that reach every branch of the instance generator,
each at three seeds, plus alg1 and alg2 on br at the three sizes with
``--no-ancestors``, four trials each with the deadline off, plus alg1 and
alg2 at the paper's regime (N = 2^20, d = 8, auto L = 32), two trials each,
plus six instance shapes that no instance can have (``--layers 0``, a
negative layer count, ``--d 1`` on br, layers wider than d, a br N with no
layer count, an odd brsimple n), plus five values refused before any trial
runs (``--seed -1``, ``--wall-p -5`` on alg2, ``--walls 3 --wall-p 5`` on
alg1, which reads neither, ``--time-limit 5`` and ``--path-target-mult nan``
on alg1): 181 in all, some of them
usage errors, whose stderr and exit status are compared too.  The six bad
shapes exit 2 with one ``cyclelab:`` line; before the shape check in
``ExperimentConfig.validate`` they ended in a traceback, so their digests
differ from those of older checkouts.  The five bad values also exit 2 with
one ``cyclelab:`` line; before ``validate`` checked them, ``--seed -1``
ended in numpy's traceback, ``--wall-p -5`` ran as depth-0 walls, alg1
ran as if it had no wall options, ``--time-limit 5`` ran with a wall-clock
deadline and ``--path-target-mult nan`` ended in a ``math.ceil`` traceback,
so their digests differ from those of older checkouts too.
Two configs run at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ALGOS = ("alg1", "alg2", "walk", "bfs", "birthday")
DISTS = ("br", "brsimple")
SIZES = ((128, 3), (512, 2), (1024, 8))
# br shapes (n, layers, d) with an explicit layer count, so that every
# branch of the row sampler runs: narrow layers drawn by permutation
# (W = 8 < 2d), iid rows with redraws in narrow layers (W = 128, d = 3),
# the rare-distinct fallback at L = 2 (63 of a 127-vertex blue pool) and
# d = W (W = 4)
LAYERED = ((128, 32, 5), (2048, 32, 3), (64, 2, 63), (16, 8, 4))
SEEDS = (11, 37, 4242)
TAIL = ["--trials", "4", "--time-limit", "0"]
# N = 2^20 costs a few seconds and about 400 MB a trial, so two trials
PAPER_REGIME = ["--n", "1048576", "--d", "8", "--seed", "1", "--trials", "2", "--time-limit", "0"]
BAD_SHAPES = (
    ["--dist", "br", "--n", "2048", "--layers", "0"],
    ["--dist", "br", "--n", "2048", "--layers", "-4"],
    ["--dist", "br", "--n", "2048", "--d", "1"],
    ["--dist", "br", "--n", "2048", "--layers", "4096"],
    ["--dist", "br", "--n", "3", "--d", "8"],
    ["--dist", "brsimple", "--n", "3"],
)
# values refused before any trial runs; each config ends with its own seed and
# then TAIL, except the --time-limit one, which ends with its own tail because
# TAIL's --time-limit 0 would override its value
BAD_VALUES = (
    ["--algo", "walk", "--dist", "br", "--n", "2048", "--seed", "-1"],
    ["--algo", "alg2", "--dist", "br", "--n", "2048", "--wall-p", "-5", "--seed", "0"],
    ["--algo", "alg1", "--dist", "br", "--n", "2048", "--walls", "3", "--wall-p", "5",
     "--seed", "0"],
    ["--algo", "walk", "--dist", "br", "--n", "2048", "--seed", "0", "--trials", "4",
     "--time-limit", "5"],
    ["--algo", "alg1", "--dist", "br", "--n", "2048", "--d", "8", "--path-target-mult", "nan",
     "--seed", "0"],
)


def configs() -> list[list[str]]:
    sized = [
        ["--algo", algo, "--dist", dist, "--n", str(n), "--d", str(d), "--seed", str(seed)]
        for algo, dist, (n, d), seed in itertools.product(ALGOS, DISTS, SIZES, SEEDS)
    ]
    layered = [
        ["--algo", algo, "--dist", "br", "--n", str(n), "--layers", str(layers), "--d", str(d),
         "--seed", str(seed)]
        for algo, (n, layers, d), seed in itertools.product(ALGOS, LAYERED, SEEDS)
    ]
    # the epoch columns without the ancestor pass
    no_ancestors = [
        ["--algo", algo, "--dist", "br", "--n", str(n), "--d", str(d), "--seed", str(seed),
         "--no-ancestors"]
        for algo, (n, d), seed in itertools.product(("alg1", "alg2"), SIZES, SEEDS)
    ]
    paper = [["--algo", algo, "--dist", "br", *PAPER_REGIME] for algo in ("alg1", "alg2")]
    bad = [["--algo", "walk", *shape, "--seed", "0"] for shape in BAD_SHAPES]
    return [args + TAIL for args in sized + layered + no_ancestors] + paper + [
        args if "--time-limit" in args else args + TAIL for args in bad + list(BAD_VALUES)
    ]


def digest(args: list[str], src: Path) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "cyclelab", *args], capture_output=True, env=env, check=False,
    )
    h = hashlib.sha256()
    for part in (proc.stdout, proc.stderr, str(proc.returncode).encode()):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the cyclelab package (default: this checkout's src)")
    src = parser.parse_args().src.resolve()
    runs = configs()
    with ThreadPoolExecutor(max_workers=2) as pool:
        for args, sha in zip(runs, pool.map(lambda a: digest(a, src), runs)):
            print(sha, " ".join(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
