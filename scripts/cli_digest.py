"""Byte-identity check of the command line: one SHA-256 per config.

    python3 scripts/cli_digest.py > new.txt
    python3 scripts/cli_digest.py --src ../parent/src > old.txt
    diff old.txt new.txt

Each config runs ``python3 -m cyclelab`` in a fresh process with ``--src``
first on ``PYTHONPATH`` (default: this checkout's ``src``), and its digest
covers the process's stdout, stderr and exit status.  The configs are every
finder on both distributions at three (n, d) sizes, and on br at four
(n, layers, d) shapes that reach every branch of the instance generator,
each at three seeds, four trials each, plus alg1 and
alg2 at the paper's regime (N = 2^20, d = 8, auto L = 32), two trials each,
plus alg1 on 31 red layers of 512 rows (``--n 8192 --layers 32 --d 8``),
which the generator draws in two groups of layers, four trials,
plus alg2 with one walk a colour test (``--n 512 --num-walks 1``), four
trials,
plus six instance shapes that no instance can have (``--layers 0``, a
negative layer count, ``--d 1`` on br, layers wider than d, a br N with no
layer count, an odd brsimple n), plus four values refused before any trial
runs (``--seed -1``, ``--walls 3`` on alg2, an option that is gone,
``--time-limit 5`` and an ``--out`` path in a directory that does not
exist): 164 in all, some of them usage errors, whose stderr and exit
status are compared too.  The six bad shapes
exit 2 with one ``cyclelab:`` line; before the shape check in
``ExperimentConfig.validate`` they ended in a traceback, so their digests
differ from those of older checkouts.  "Layers wider than d" runs at the
default d, so its message changed when that default went from 2 to 8.
Three bad values also exit 2 with one ``cyclelab:`` line, and
``--walls`` is an argparse usage error (exit 2); before they were refused,
``--seed -1`` ended in numpy's traceback, alg2 built three walls,
``--time-limit 5`` ran with a wall-clock deadline and the bad ``--out``
ran every trial before its ``FileNotFoundError`` traceback, so their
digests differ from those of older checkouts too.
alg2 with one walk a test takes a unanimous verdict of that one walk, as
alg1 does; checkouts whose stage 2 took an 80% vote refused it, or ran it
with no stage-2 verdict, so its digest differs from theirs.  Every alg1 and
alg2 config on br but the one-walk one (45 configs) differs from
checkouts whose colour tests took six walks by default, each drawing its
own first step: the default is now four walks, which leave the start on
distinct children.  The one-walk config does not differ from those
checkouts, because a single walk's offset is its own first draw, so it
draws and walks as before.  alg2 runs
alg1's finder and prints alg1's rows under its own name; checkouts with a
wall stage print other rows wherever they built a wall.
``--time-limit`` defaults to 0, no deadline, the only value it accepts,
so only the refused config names it.
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
TAIL = ["--trials", "4"]
# N = 2^20 costs a few seconds and about 400 MB a trial, so two trials
PAPER_REGIME = ["--n", "1048576", "--d", "8", "--seed", "1", "--trials", "2"]
# 31 red layers of 512 rows, drawn by the generator in two groups of layers
TWO_GROUPS = ["--algo", "alg1", "--dist", "br", "--n", "8192", "--layers", "32", "--d", "8",
              "--seed", "5", *TAIL]
BAD_SHAPES = (
    ["--dist", "br", "--n", "2048", "--layers", "0"],
    ["--dist", "br", "--n", "2048", "--layers", "-4"],
    ["--dist", "br", "--n", "2048", "--d", "1"],
    ["--dist", "br", "--n", "2048", "--layers", "4096"],
    ["--dist", "br", "--n", "3", "--d", "8"],
    ["--dist", "brsimple", "--n", "3"],
)
# alg2 with one walk a colour test, whose unanimous verdict needs no second walk
ONE_WALK = ["--algo", "alg2", "--dist", "br", "--n", "512", "--num-walks", "1", "--seed", "0",
            *TAIL]
# values refused before any trial runs; each config ends with its own seed and
# then TAIL
BAD_VALUES = (
    ["--algo", "walk", "--dist", "br", "--n", "2048", "--seed", "-1"],
    ["--algo", "alg2", "--dist", "br", "--n", "2048", "--walls", "3", "--seed", "0"],
    ["--algo", "walk", "--dist", "br", "--n", "2048", "--time-limit", "5", "--seed", "0"],
    ["--algo", "walk", "--dist", "brsimple", "--n", "64", "--out", "/nonexistent/dir/x.csv",
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
    paper = [["--algo", algo, "--dist", "br", *PAPER_REGIME] for algo in ("alg1", "alg2")]
    bad = [["--algo", "walk", *shape, "--seed", "0"] for shape in BAD_SHAPES]
    return [args + TAIL for args in sized + layered] + paper + [TWO_GROUPS, ONE_WALK] + [
        args + TAIL for args in bad + list(BAD_VALUES)
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
