"""Per-layer spans recorded from outside the package.

``Tracer.install()`` replaces the public functions of each cyclelab layer
with timing wrappers, at the names their callers look them up under
(``harness.gen_br_pair``, ``finders.identify_color``, ...), and
``uninstall()`` puts the originals back.  Nothing inside the package is
edited.

Each wrapped call is a span: name, start, end, the span that caused it and
the trial it belongs to.  A span's self time is its duration minus the
time spent in the spans it caused.  Four leaf calls run up to millions of
times per trial -- ``Oracle.query_vertex``, ``ancestor_count``,
``detect_cycle`` and ``max_blue_path`` (once per epoch) -- so they are
aggregated per trial into a count and a total (their self time equals
their total: they call no wrapped function).
``query_vertex`` is further split by whether the oracle's meter moved:
charged queries against free replays of a cached answer.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from cyclelab import analysis, cli, finders, harness
from cyclelab.oracle import Oracle

# (module, attribute, span name): every wrapped call that gets its own span.
SPANNED = (
    (harness, "run_trial", "harness.run_trial"),
    (harness, "auto_params", "graphs.auto_params"),
    (harness, "gen_br_pair", "graphs.gen_br_pair"),
    (harness, "new_oracle", "oracle.new_oracle"),
    (harness, "run_algorithm1", "finders.run_algorithm1"),
    (harness, "run_algorithm2", "finders.run_algorithm2"),
    (harness, "verify_cycle", "oracle.verify_cycle"),
    (harness, "epoch_stats", "analysis.epoch_stats"),
    (finders, "identify_color", "finders.identify_color"),
    (finders, "wall_identify", "finders.wall_identify"),
    (finders, "build_wall", "finders.build_wall"),
    (analysis, "decompose_epochs", "analysis.decompose_epochs"),
    (cli, "records_to_csv", "harness.records_to_csv"),
)
# (module, attribute, aggregate name): leaf calls counted, not stored.
AGGREGATED = (
    (finders, "detect_cycle", "oracle.detect_cycle"),
    (analysis, "ancestor_count", "analysis.ancestor_count"),
    (analysis, "max_blue_path", "analysis.max_blue_path"),
)


class _Frame:
    __slots__ = ("span_id", "child")

    def __init__(self, span_id: int) -> None:
        self.span_id = span_id
        self.child = 0.0


class Tracer:
    """Spans and leaf aggregates of one traced round, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, trial, name, start, end, self)
        self.leaves: dict[int, dict[str, list]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0])
        )  # trial -> name -> [count, total]
        self.trials = 0
        self.walks = 0
        self.csv_bytes = 0
        self._stack = [_Frame(-1)]
        self._trial = -1  # index of the running trial, -1 outside trials
        self._saved: list[tuple] = []

    # -- wrappers -------------------------------------------------------

    def _spanned(self, fn, name):
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            if name == "harness.run_trial":
                self._trial = self.trials
                self.trials += 1
            frame = _Frame(len(spans))
            spans.append(None)  # reserve the id so children can point at it
            parent = stack[-1]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent.child += dur
                spans[frame.span_id] = (
                    frame.span_id, parent.span_id, self._trial, name,
                    t0, t1, dur - frame.child,
                )
                if name == "harness.run_trial":
                    self._trial = -1
            if name in ("finders.identify_color", "finders.wall_identify"):
                self.walks += out.walks_used
            elif name == "harness.records_to_csv":
                self.csv_bytes += len(out.encode())
            return out

        return wrapper

    def _aggregated(self, fn, name):
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack[-1].child += dur
                agg = self.leaves[self._trial][name]
                agg[0] += 1
                agg[1] += dur

        return wrapper

    def _query_vertex(self, fn):
        stack = self._stack

        def query_vertex(oracle, u):
            before = oracle.vertex_query_count
            t0 = perf_counter()
            try:
                return fn(oracle, u)
            finally:
                dur = perf_counter() - t0
                stack[-1].child += dur
                kind = "charged" if oracle.vertex_query_count != before else "cached"
                agg = self.leaves[self._trial]["oracle.query_vertex." + kind]
                agg[0] += 1
                agg[1] += dur

        return query_vertex

    def install(self) -> None:
        for module, attr, name in SPANNED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._spanned(fn, name))
        for module, attr, name in AGGREGATED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._aggregated(fn, name))
        self._saved.append((Oracle, "query_vertex", Oracle.query_vertex))
        Oracle.query_vertex = self._query_vertex(Oracle.query_vertex)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- read-out --------------------------------------------------------

    def charged_per_trial(self) -> list[int]:
        return [
            self.leaves[t]["oracle.query_vertex.charged"][0]
            for t in range(self.trials)
        ]

    def totals(self, scale: list[float], default_scale: float) -> dict[str, list]:
        """name -> [calls, inclusive s, self s] over the whole round.

        Times of trial i are multiplied by scale[i], times outside any
        trial by default_scale (see speed.py).
        """
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, trial, name, t0, t1, self_s in self.spans:
            f = scale[trial] if trial >= 0 else default_scale
            row = out[name]
            row[0] += 1
            row[1] += (t1 - t0) * f
            row[2] += self_s * f
        for trial, per_trial in self.leaves.items():
            f = scale[trial] if trial >= 0 else default_scale
            for name, (count, total) in per_trial.items():
                row = out[name]
                row[0] += count
                row[1] += total * f
                row[2] += total * f
        return out

    def write(self, path) -> None:
        """Spans one JSON object a line, then one line per trial aggregate."""
        with open(path, "w") as fh:
            for span_id, parent, trial, name, t0, t1, self_s in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "trial": trial, "name": name,
                    "start": t0, "end": t1, "self": self_s,
                }) + "\n")
            for trial, per_trial in sorted(self.leaves.items()):
                for name, (count, total) in sorted(per_trial.items()):
                    fh.write(json.dumps({
                        "trial": trial, "aggregate": name, "count": count,
                        "total": total, "self": total,
                    }) + "\n")
