"""Rescale wall times to a reference host speed.

On a shared machine the speed of one core swings widely on a timescale of
seconds as other tenants come and go: the same 40 trials took between 4.7
and 7.4 s in six back-to-back processes on a 2-core machine.  A fixed,
pure-Python burst of work is timed between trials, and each trial's time
is multiplied by ``REF_BURST_S / burst``, the bursts before and after the
trial averaged.  The burst does not touch cyclelab, so a change to the
package moves the rescaled times exactly as it moves the raw ones; only
the host's speed is divided out.  In the same six processes the rescaled
times stayed within 1.2% of each other.

Set-up time is mostly starting an interpreter and importing modules from
disk, which the burst does not track.  It is rescaled instead by a
reference process, ``REF_SPAWN_CODE``, which starts Python and imports
numpy but nothing of cyclelab, timed alternately with the set-up processes.
"""

from __future__ import annotations

from time import perf_counter

# Seconds one burst takes on the reference host: about the median on the
# 2-core machine the benchmark was defined on.  Every rescaled time is
# "seconds on a host where one burst takes this long".
REF_BURST_S = 0.004
# Seconds the reference process takes on that host: a set-up time is
# "seconds on a host where importing numpy in a fresh interpreter takes
# this long".
REF_SPAWN_S = 0.14
REF_SPAWN_CODE = "import numpy\n"


def burst() -> float:
    """Time a fixed mix of dict, set and integer work; about 3-6 ms."""
    t0 = perf_counter()
    counts: dict[int, int] = {}
    seen: set[int] = set()
    for i in range(20000):
        k = i % 997
        counts[k] = counts.get(k, 0) + i
        if i & 3:
            seen.add(i)
    return perf_counter() - t0


def rescale(durations: list[float], bursts: list[float]) -> list[float]:
    """Duration i rescaled by the mean of bursts i and i+1 around it."""
    if len(bursts) != len(durations) + 1:
        raise ValueError("need one burst before each duration and one after the last")
    return [d * 2 * REF_BURST_S / (bursts[i] + bursts[i + 1])
            for i, d in enumerate(durations)]
