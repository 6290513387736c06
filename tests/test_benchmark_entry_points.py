"""The benchmark's hooks into the package, checked without running the benchmark.

``perfbench/`` wraps package functions by name (``spans.py``,
``checks.py``), imports names from ``cyclelab`` (``scaling.py``) and
drives the command line with a fixed argument shape (``run.py``).  A
package change that removes or renames one of those fails here, not only
in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

from cyclelab import cli, harness
from cyclelab.oracle import Oracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("checks", "run", "scaling", "spans", "speed")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench/ on sys.path; its modules are forgotten afterwards."""
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    # run.py pins these for its own process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    yield
    for name in MODULES:
        sys.modules.pop(name, None)


def test_tracer_wraps_and_restores_every_spanned_name(perfbench):
    import spans

    named = spans.SPANNED + spans.AGGREGATED
    before = [getattr(module, attr) for module, attr, _ in named]
    query_vertex = Oracle.query_vertex
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(getattr(m, a) is not fn for (m, a, _), fn in zip(named, before))
        assert Oracle.query_vertex is not query_vertex
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _ in named] == before
    assert Oracle.query_vertex is query_vertex


def test_checker_wraps_and_restores_the_harness(perfbench):
    import checks

    attrs = ("new_oracle", "run_algorithm1", "run_algorithm2", "run_trial")
    before = [getattr(harness, attr) for attr in attrs]
    checker = checks.TrialChecker(keep_ancestor_graph=False)
    try:
        checker.install()
        assert all(getattr(harness, a) is not fn for a, fn in zip(attrs, before))
    finally:
        checker.uninstall()
    assert [getattr(harness, attr) for attr in attrs] == before


def test_scaling_imports_from_the_package(perfbench):
    import scaling

    for name in ("ExperimentConfig", "auto_params", "fit_scaling", "run_experiment"):
        assert callable(getattr(scaling, name))


def test_every_workload_argv_parses(perfbench):
    import run

    for name, (args, trials, quick_args) in run.WORKLOADS.items():
        for shape, count in ((args, trials), (quick_args, run.QUICK_TRIALS)):
            argv = run.entry_argv(shape, count, 3)
            assert argv[-2:] == ["--time-limit", "0"]
            parsed = cli.build_parser().parse_args(argv)
            assert (parsed.trials, parsed.seed, parsed.time_limit) == (count, 3 * count, 0), name


def test_a_traced_and_checked_round_runs(perfbench):
    # one small trial through the benchmark's own round: the checker and
    # the tracer wrap the entry point, and the checks find nothing wrong
    import run
    import spans

    argv = run.entry_argv(["--algo", "alg1", "--n", "64", "--d", "3"], 1, 0)
    tracer = spans.Tracer()
    rnd = run.run_round(argv, 1, tracer=tracer)
    assert rnd.checker.problems == []
    assert rnd.stops() == {"cycle": 1, "budget": 0, "step_cap": 0}
    assert tracer.charged_per_trial() == [rnd.queries]
