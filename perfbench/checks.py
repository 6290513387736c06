"""Checks on each trial that do not trust the package's own verdicts.

``TrialChecker.install()`` wraps ``harness.run_trial`` (and the two calls
inside it that hand out the oracle and the finder outcome) so that every
trial is checked as soon as it ends, while its hidden graph is still in
memory.  The wrapper also times each trial and runs a speed burst before
it (speed.py); the time the checks and bursts take is kept apart so the
caller can take it out of the measured time.  The checks read the hidden adjacency arrays and
coloring directly and never call ``verify_cycle``, ``decompose_epochs`` or
``epoch_stats``.
"""

from __future__ import annotations

import csv
import io
import math
from time import perf_counter

import numpy as np

from cyclelab import harness
from speed import burst


class TrialChecker:
    """Checks one round of trials; ``problems`` lists every violation."""

    def __init__(self, *, keep_ancestor_graph: bool) -> None:
        self.facts: list[dict] = []
        self.problems: list[str] = []
        self.bad_seeds: set[int] = set()
        self.seconds = 0.0  # spent in checks and speed bursts, not in the program
        self.trial_s: list[float] = []  # raw wall time of each trial
        self.bursts: list[float] = []  # speed burst before each trial (see speed.py)
        self.ancestor_graph = None  # (seed, edge sources, edge targets, blue vertices)
        self._keep_ancestor_graph = keep_ancestor_graph
        self._oracle = None
        self._outcome = None
        self._saved: list[tuple] = []

    # -- capture ---------------------------------------------------------

    def install(self) -> None:
        def patch(attr, make):
            fn = getattr(harness, attr)
            self._saved.append((attr, fn))
            setattr(harness, attr, make(fn))

        def capture_oracle(fn):
            def new_oracle(*args, **kwargs):
                self._oracle = fn(*args, **kwargs)
                return self._oracle
            return new_oracle

        def capture_outcome(fn):
            def run_finder(*args, **kwargs):
                self._outcome = fn(*args, **kwargs)
                return self._outcome
            return run_finder

        def checked(fn):
            def run_trial(config, seed):
                t0 = perf_counter()
                self.bursts.append(burst())
                self._oracle = self._outcome = None
                t1 = perf_counter()
                record = fn(config, seed)
                t2 = perf_counter()
                self.trial_s.append(t2 - t1)
                self._check(record)
                self._oracle = self._outcome = None
                self.seconds += (t1 - t0) + (perf_counter() - t2)
                return record
            return run_trial

        patch("new_oracle", capture_oracle)
        patch("run_algorithm1", capture_outcome)
        patch("run_algorithm2", capture_outcome)
        patch("run_trial", checked)

    def uninstall(self) -> None:
        while self._saved:
            attr, fn = self._saved.pop()
            setattr(harness, attr, fn)

    # -- per-trial checks -------------------------------------------------

    def _fail(self, seed: int, message: str) -> None:
        self.bad_seeds.add(seed)
        self.problems.append(f"seed {seed}: {message}")

    def _check(self, record) -> None:
        oracle, outcome, seed = self._oracle, self._outcome, record.seed
        graph, coloring = oracle.hidden_graph, oracle.hidden_coloring
        colors = coloring.layer_by_vertex
        params = coloring.params
        n, layers = params.n_blue, params.layers
        history = oracle.history
        budget = math.ceil(100 * layers * math.sqrt(n))

        cycle = outcome.cycle
        if cycle is not None:
            self._check_cycle(seed, graph, colors, cycle)
            stop = "cycle"
        elif record.queries >= budget:
            stop = "budget"
        else:
            stop = "step_cap"  # the deadline is off, so nothing else stops a finder
        if record.queries > budget:
            self._fail(seed, f"{record.queries} queries exceed the budget {budget}")
        if record.queries != len(history):
            self._fail(seed, f"reported {record.queries} queries, transcript has {len(history)}")

        epochs, surprises, blue_surprises = _recount_epochs(history, colors, layers // 2)
        self.facts.append({
            "seed": seed,
            "queries": record.queries,
            "stop": stop,
            "cycle_len": len(cycle) if cycle is not None else None,
            "epochs": epochs,
            "surprises": surprises,
            "blue_surprises": blue_surprises,
            "stage1_queries": outcome.aux.get("stage1_queries", 0),
            "walls_built": outcome.aux.get("walls_built", 0),
            "wall_failures": outcome.aux.get("wall_failures", 0),
            "appends": outcome.aux["appends"],
        })
        if self._keep_ancestor_graph and self.ancestor_graph is None:
            src = [rec.vertex for rec in history for _ in rec.answer]
            dst = [v for rec in history for v in rec.answer]
            seen = np.unique(np.concatenate([[rec.vertex for rec in history], dst]))
            self.ancestor_graph = (
                seed,
                np.array(src, dtype=np.int64),
                np.array(dst, dtype=np.int64),
                seen[colors[seen] == 0],
            )

    def _check_cycle(self, seed, graph, colors, cycle) -> None:
        if len(cycle) < 2 or len(set(cycle)) != len(cycle):
            self._fail(seed, f"cycle {cycle} repeats a vertex or is too short")
            return
        sources, targets = graph.edge_arrays()
        on_cycle = np.isin(sources, cycle)
        edges = set(zip(sources[on_cycle].tolist(), targets[on_cycle].tolist()))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if (a, b) not in edges:
                self._fail(seed, f"cycle edge {a}->{b} is not in the hidden graph")
        if np.any(colors[np.array(cycle)] != 0):
            self._fail(seed, f"cycle {cycle} leaves the blue part")

    # -- whole-round checks ---------------------------------------------

    def check_output(self, csv_text: str, stderr_text: str, config_trials: int) -> None:
        """Compare the CSV the entry point printed with the recomputation."""
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        if len(rows) != config_trials or len(self.facts) != config_trials:
            self.problems.append(
                f"{len(rows)} CSV rows and {len(self.facts)} checked trials, "
                f"expected {config_trials}"
            )
            return
        for row, fact in zip(rows, self.facts):
            seed = fact["seed"]
            if int(row["seed"]) != seed or int(row["queries"]) != fact["queries"]:
                self._fail(seed, f"CSV row {row['seed']},{row['queries']} does not match the trial")
            want = "" if fact["cycle_len"] is None else str(fact["cycle_len"])
            if row["success"] != ("1" if fact["cycle_len"] else "0") or row["cycle_len"] != want:
                self._fail(seed, "CSV success/cycle_len does not match the claimed cycle")
            for col in ("epochs", "surprises", "blue_surprises"):
                if row[col] != str(fact[col]):
                    self._fail(seed, f"CSV {col}={row[col]}, recomputed {fact[col]}")
        found = sum(1 for f in self.facts if f["stop"] == "cycle")
        if f"{found}/{config_trials} trials found a cycle" not in stderr_text:
            self.problems.append(f"entry point summary {stderr_text.strip()!r} != {found} found")

    def check_ancestors(self, csv_text: str) -> None:
        """max_anc_blue of the first trial against scipy reachability."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import breadth_first_order

        seed, src, dst, blue = self.ancestor_graph
        size = int(max(src.max(initial=0), dst.max(initial=0), blue.max(initial=0))) + 1
        # reversed edges: a BFS from u reaches exactly u's ancestors
        rev = csr_matrix((np.ones(len(src)), (dst, src)), shape=(size, size))
        best = max((len(breadth_first_order(rev, int(u), return_predecessors=False)) - 1
                    for u in blue), default=0)
        row = next(csv.DictReader(io.StringIO(csv_text)))
        if row["max_anc_blue"] != str(best):
            self._fail(seed, f"CSV max_anc_blue={row['max_anc_blue']}, scipy gives {best}")


def _recount_epochs(history, colors, cap: int) -> tuple[int, int, int]:
    """Epochs close on a surprise (an answer naming a seen vertex) or at cap."""
    seen: set[int] = set()
    epochs = surprises = blue_surprises = 0
    length = 0
    for rec in history:
        surprise = not seen.isdisjoint(rec.answer)
        seen.add(rec.vertex)
        seen.update(rec.answer)
        length += 1
        if surprise:
            surprises += 1
            blue_surprises += colors[rec.vertex] == 0
        if surprise or length == cap:
            epochs += 1
            length = 0
    return epochs + (length > 0), surprises, int(blue_surprises)
