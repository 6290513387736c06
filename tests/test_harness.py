"""Experiment harness, CSV output, scaling fits, and the CLI."""

import inspect
import re

import numpy as np
import pytest

from cyclelab import (
    ConfigError,
    ExperimentConfig,
    InsufficientData,
    TrialRecord,
    auto_params,
    fit_scaling,
    gen_br_pair,
    identify_color,
    records_to_csv,
    run_algorithm1,
    run_algorithm2,
    run_bfs_heuristic,
    run_birthday_sampler,
    run_experiment,
    run_random_walk_finder,
    run_trial,
    wall_identify,
)
from cyclelab import harness
from cyclelab.cli import build_parser, main
from cyclelab.finders import NUM_WALKS, _implied_layers


def walk_config(**overrides):
    base = dict(dist="brsimple", algo="walk", n=64, trials=2, base_seed=5)
    base.update(overrides)
    return ExperimentConfig(**base)


# -- configuration -----------------------------------------------------------


def test_config_rejects_bad_combinations():
    with pytest.raises(ConfigError):
        walk_config(dist="nope").validate()
    with pytest.raises(ConfigError):
        walk_config(algo="nope").validate()
    with pytest.raises(ConfigError):
        walk_config(algo="alg1").validate()  # layered distribution required
    with pytest.raises(ConfigError):
        walk_config(layers=4).validate()  # layers meaningless for brsimple
    with pytest.raises(ConfigError):
        walk_config(n=0).validate()
    with pytest.raises(ConfigError):
        walk_config(trials=-1).validate()
    with pytest.raises(ConfigError):
        walk_config(budget=0).validate()
    with pytest.raises(ConfigError):
        walk_config(num_walks=0).validate()  # every color test inconclusive
    with pytest.raises(ConfigError):
        walk_config(algo="bfs", explore_budget=0).validate()  # explores nothing
    with pytest.raises(TypeError):
        walk_config(dist="br", algo="alg2", walls=0)  # alg2 builds no walls
    with pytest.raises(TypeError):
        walk_config(wall_p=5)  # the wall depth is floor(log_d W), not an option
    with pytest.raises(ConfigError):
        walk_config(base_seed=-1).validate()  # numpy refuses a negative seed
    with pytest.raises(TypeError):
        # alg1 and alg2 check for a cycle after every head query, so no path target
        walk_config(dist="br", algo="alg1", path_target_mult=2)
    walk_config().validate()
    walk_config(dist="br", algo="alg2", num_walks=2).validate()
    walk_config(dist="br", algo="alg1", num_walks=1).validate()
    # one walk gives a unanimous verdict, in alg2 as in alg1
    walk_config(dist="br", algo="alg2", num_walks=1).validate()
    walk_config(base_seed=0).validate()


# each finder option, a value other than its default, and the finders that read it
FINDER_OPTIONS = [
    ("explore_budget", 1, {"bfs"}),  # the least budget is a choice, not a refusal
    ("num_walks", 12, {"alg1", "alg2"}),  # more walks than the default
    ("reps", 2, {"bfs"}),
    ("explore_budget", 10, {"bfs"}),
    ("num_walks", 3, {"alg1", "alg2"}),
    ("num_walks", 1, {"alg1", "alg2"}),  # one walk gives a unanimous verdict
]


@pytest.mark.parametrize("option, value, readers", FINDER_OPTIONS)
def test_config_refuses_options_the_finder_ignores(option, value, readers):
    for algo in harness.ALGORITHMS:
        config = walk_config(dist="br", algo=algo, **{option: value})
        if algo in readers:
            config.validate()
        else:
            with pytest.raises(ConfigError, match=f"^{option} applies only to .*, not {algo}$"):
                config.validate()
        # the default value is no choice, whatever the finder
        walk_config(dist="br", algo=algo, **{option: getattr(ExperimentConfig, option)}).validate()


def test_every_walk_count_default_reads_one_constant():
    # the CLI, the config and every colour-test entry point default to
    # finders.NUM_WALKS, four walks a test
    assert NUM_WALKS == 4
    assert build_parser().parse_args(["--n", "64"]).num_walks == NUM_WALKS
    assert ExperimentConfig.num_walks == NUM_WALKS
    for entry in (run_algorithm1, run_algorithm2, identify_color, wall_identify):
        assert inspect.signature(entry).parameters["num_walks"].default == NUM_WALKS


def test_trials_stop_on_the_meter_alone(capsys):
    finders = (run_random_walk_finder, run_birthday_sampler, run_algorithm1, run_algorithm2,
               run_bfs_heuristic)
    for finder in finders:
        assert "deadline" not in inspect.signature(finder).parameters, finder.__name__
    for finder in (run_algorithm1, run_algorithm2, identify_color, wall_identify,
                   _implied_layers):
        assert "max_walk_len" not in inspect.signature(finder).parameters, finder.__name__
    assert "settled" not in inspect.signature(_implied_layers).parameters
    for finder in (run_algorithm1, run_algorithm2):
        assert "path_target" not in inspect.signature(finder).parameters, finder.__name__
    # "none" still runs, as --time-limit 0 and as time_limit=None
    assert build_parser().parse_args(["--n", "64"]).time_limit == 0
    assert len(run_experiment(walk_config(time_limit=None))) == 2
    args = ["--dist", "brsimple", "--algo", "walk", "--n", "64", "--trials", "2"]
    assert main(args + ["--time-limit", "0"]) == 0
    capsys.readouterr()
    message = "time_limit must be none (--time-limit 0): trials stop on the query budget"
    for value in ("5", "-5", "nan"):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            walk_config(time_limit=float(value)).validate()
        assert main(args + ["--time-limit", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cyclelab: {message}\n"


def scc_edge_share(n, d, seed):
    """Edges inside strongly connected components, as a fraction of d * V."""
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    graph = gen_br_pair(auto_params(n, d), np.random.default_rng(seed)).graph
    src, dst = graph.edge_arrays()
    v = graph.v_count
    adj = sparse.csr_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(v, v))
    _, label = csgraph.connected_components(adj, directed=True, connection="strong")
    return np.count_nonzero(label[src] == label[dst]) / (d * v)


def test_default_out_degree_keeps_instances_inside_the_promise():
    # The promise is a feedback arc set of at least epsilon * d * V, and the
    # edges inside SCCs bound that set from above.  Every cycle of a br
    # instance is blue, and the blue subgraph has mean out-degree d / 2: at
    # d = 2 it is critical, and its SCC edges fall toward 0 as N grows.
    assert build_parser().parse_args(["--n", "64"]).d == 8
    assert ExperimentConfig.d == 8
    sizes, seeds = (2**12, 2**16), range(3)
    share = {
        (d, n): [scc_edge_share(n, d, seed) for seed in seeds] for d in (2, 3, 8) for n in sizes
    }
    for (d, n), values in share.items():
        print(f"d={d} N={n}: SCC edges / dV in [{min(values):.5f}, {max(values):.5f}]")
    for d, floor in ((3, 0.05), (8, 0.15)):
        low = min(min(share[d, n]) for n in sizes)
        print(f"d={d}: lowest share {low:.4f} against a floor of {floor}")
        assert low >= floor
    small, large = (max(share[2, n]) for n in sizes)
    print(f"d=2: highest share {small:.5f} at N=2^12, {large:.5f} at N=2^16")
    assert large < small


def test_layer_divisibility_checked():
    config = ExperimentConfig(dist="br", algo="walk", n=8, trials=1, layers=6)
    with pytest.raises(ConfigError):
        run_experiment(config)


def test_zero_trials_give_empty_list():
    assert run_experiment(walk_config(trials=0)) == []


# -- trials --------------------------------------------------------------------


def test_trial_record_fields_brsimple():
    rec = run_trial(walk_config(), seed=5)
    assert (rec.dist, rec.algo, rec.n, rec.seed) == ("brsimple", "walk", 64, 5)
    assert rec.layers is None and rec.width is None
    assert rec.queries > 0
    assert rec.ms >= 0
    # epoch accounting is a layered-distribution concept
    assert rec.epochs is None and rec.surprises is None


def test_trial_record_fields_layered():
    config = ExperimentConfig(dist="br", algo="bfs", n=64, trials=1, layers=4, d=3, reps=4)
    rec = run_trial(config, seed=3)
    assert rec.layers == 4 and rec.width == 32
    assert rec.epochs is not None and rec.epochs >= 1
    assert rec.surprises is not None
    assert rec.blue_surprises is not None
    assert rec.max_blue_path is not None
    assert rec.max_anc_blue is not None


def test_trial_skips_epoch_stats_on_request():
    config = ExperimentConfig(
        dist="br", algo="bfs", n=64, trials=1, layers=4, d=3,
        collect_epoch_stats=False,
    )
    rec = run_trial(config, seed=3)
    assert rec.epochs is None and rec.max_anc_blue is None


def test_trial_honours_budget():
    rec = run_trial(walk_config(n=10_000, d=3, budget=5), seed=1)
    assert rec.queries <= 5
    assert not rec.success


def test_trial_alg1_end_to_end():
    config = ExperimentConfig(dist="br", algo="alg1", n=256, trials=1, layers=4, d=4)
    rec = run_trial(config, seed=2)
    assert rec.success
    assert rec.cycle_len is not None and rec.cycle_len >= 2


@pytest.mark.parametrize("shape", [dict(n=2048, d=8), dict(n=2048, layers=32, d=3),
                                   dict(n=16384, d=8)],
                         ids=["2^11, d=8", "2^11, L=32, d=3", "2^14, d=8"])
def test_alg1_rows_are_alg2_rows_without_walls(shape):
    # alg2 runs alg1's finder, so every CSV column but algo is the same,
    # epoch statistics included
    for seed in range(3):
        rows = [run_trial(ExperimentConfig(dist="br", algo=algo, trials=1, **shape), seed)
                for algo in ("alg1", "alg2")]
        alg1, alg2 = (records_to_csv([r]).splitlines()[1].split(",") for r in rows)
        assert alg1[2] == "alg1" and alg2[2] == "alg2"
        assert alg1[:2] + alg1[3:] == alg2[:2] + alg2[3:], (shape, seed)
        assert rows[0].success


def test_experiment_seeds_are_sequential():
    records = run_experiment(walk_config(trials=3, base_seed=7))
    assert [r.seed for r in records] == [7, 8, 9]


# -- CSV ------------------------------------------------------------------------


GOLDEN_RECORD = TrialRecord(
    dist="brsimple", algo="walk", n=100, layers=None, width=None, d=3,
    seed=7, queries=42, success=True, cycle_len=5, epochs=None,
    surprises=None, blue_surprises=None, max_blue_path=None,
    max_anc_blue=None, ms=3.7,
)


def test_csv_golden_row():
    text = records_to_csv([GOLDEN_RECORD])
    header, row = text.strip().split("\n")
    assert header.startswith("schema,dist,algo,")
    assert row == "v1,brsimple,walk,100,,,3,7,42,1,5,,,,,,0"


def test_csv_timings_column_is_opt_in():
    # the ms column stays 0 by default so reruns are byte-comparable
    with_timings = records_to_csv([GOLDEN_RECORD], timings=True)
    assert with_timings.strip().split("\n")[1].endswith(",4")


def test_csv_reruns_identical():
    config = walk_config(trials=3)
    a = records_to_csv(run_experiment(config))
    b = records_to_csv(run_experiment(config))
    assert a == b


# -- scaling fits -----------------------------------------------------------------


def fake_records(sizes, queries_fn, per_size=10):
    recs = []
    for n in sizes:
        for i in range(per_size):
            recs.append(
                TrialRecord(
                    dist="brsimple", algo="walk", n=n, layers=None, width=None,
                    d=3, seed=i, queries=queries_fn(n), success=True,
                    cycle_len=3, epochs=None, surprises=None,
                    blue_surprises=None, max_blue_path=None,
                    max_anc_blue=None, ms=0.0,
                )
            )
    return recs


def test_fit_constant_queries_zero_exponent():
    fit = fit_scaling(fake_records([100, 1000, 10_000], lambda n: 17))
    assert abs(fit.exponent) < 1e-9
    assert fit.r_squared == 1.0


def test_fit_linear_queries_unit_exponent():
    fit = fit_scaling(fake_records([100, 1000, 10_000], lambda n: 2 * n))
    assert abs(fit.exponent - 1.0) < 1e-9


def test_fit_requires_three_sizes():
    with pytest.raises(InsufficientData):
        fit_scaling(fake_records([100, 1000], lambda n: 17))


def test_fit_ignores_failures_and_thin_sizes():
    recs = fake_records([100, 1000, 10_000], lambda n: 17)
    thin = fake_records([50], lambda n: 999, per_size=3)  # below the 10-trial floor
    failed = [
        TrialRecord(
            dist="brsimple", algo="walk", n=500, layers=None, width=None,
            d=3, seed=i, queries=10**6, success=False, cycle_len=None,
            epochs=None, surprises=None, blue_surprises=None,
            max_blue_path=None, max_anc_blue=None, ms=0.0,
        )
        for i in range(20)
    ]
    fit = fit_scaling(recs + thin + failed)
    assert abs(fit.exponent) < 1e-9
    assert len(fit.points) == 3


# -- command line ----------------------------------------------------------------


def test_cli_prints_csv(capsys):
    code = main(["--dist", "brsimple", "--algo", "walk", "--n", "64",
                 "--trials", "2", "--seed", "5"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("schema,")
    assert lines[1].startswith("v1,brsimple,walk,64,")
    assert "trials found a cycle" in captured.err


def test_cli_writes_file(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    code = main(["--dist", "brsimple", "--algo", "walk", "--n", "64",
                 "--trials", "2", "--seed", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert out.read_text().startswith("schema,")


def test_cli_refuses_an_unwritable_out_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trial(config, seed):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    args = ["--dist", "brsimple", "--algo", "walk", "--n", "64", "--trials", "2"]
    missing = tmp_path / "no" / "such" / "dir.csv"
    for path, reason in ((missing, "No such file or directory"), (tmp_path, "Is a directory")):
        assert main(args + ["--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cyclelab: cannot write {path}: {reason}\n"
    # a refused config neither creates nor truncates the output
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier rows\n")
    fresh = tmp_path / "fresh.csv"
    for path in (kept, fresh):
        assert main(["--dist", "brsimple", "--n", "3", "--out", str(path)]) == 2
        assert capsys.readouterr().err == "cyclelab: brsimple needs an even n, got 3\n"
    assert kept.read_text() == "earlier rows\n"
    assert not fresh.exists()


def test_cli_rejects_bad_combination(capsys):
    code = main(["--dist", "brsimple", "--algo", "alg1", "--n", "64", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "layered" in captured.err
    # trials stop on the query budget, never on the clock
    code = main(["--dist", "brsimple", "--algo", "walk", "--n", "64", "--trials", "2",
                 "--time-limit", "-5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "cyclelab: time_limit must be none (--time-limit 0): trials stop on the query budget\n"
    )
    # a colour test needs a walk
    code = main(["--dist", "br", "--algo", "alg1", "--n", "2048", "--d", "8", "--trials", "1",
                 "--num-walks", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "cyclelab: num_walks must be >= 1\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--layers", "0"], "layers must be even and >= 2, got 0"),
        (["--layers", "-4"], "layers must be even and >= 2, got -4"),
        (["--d", "1"], "outdeg must be >= 2, got 1"),
        (["--layers", "4096", "--d", "2"], "outdeg 2 exceeds layer width 1"),
        (["--n", "3", "--d", "8"], "no even divisor of 6 within a factor 4 of 1.489"),
        (["--dist", "brsimple", "--n", "3"], "brsimple needs an even n, got 3"),
        # values no finder can run with, or that ended in numpy's seed traceback
        (["--algo", "alg2", "--budget", "0"], "budget must be >= 1"),
        (["--algo", "bfs", "--explore-budget", "0"], "explore_budget must be >= 1"),
        (["--seed", "-1"], "seed must be >= 0"),
        # finder options that the chosen finder would ignore
        (["--algo", "alg1", "--reps", "2"], "reps applies only to bfs, not alg1"),
        (["--num-walks", "3"], "num_walks applies only to alg1 and alg2, not walk"),
        (["--algo", "alg2", "--reps", "2"], "reps applies only to bfs, not alg2"),
        (["--layers", "4096"], "outdeg 8 exceeds layer width 1"),  # the default d
    ],
)
def test_cli_rejects_bad_instance_shapes(args, message, capsys):
    # checked up front, so even a run of no trials is refused with one line
    code = main(["--algo", "walk", "--n", "2048", "--trials", "0", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"cyclelab: {message}\n"


def test_cli_has_no_wall_fan_out_option(capsys):
    # alg2 builds no walls, so --wall-p is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["--algo", "alg2", "--n", "2048", "--trials", "0", "--wall-p", "5"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith("cyclelab: error: unrecognized arguments: --wall-p 5\n")


def test_cli_has_no_walls_option(capsys):
    # alg2 builds no walls, so --walls is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["--algo", "alg2", "--n", "2048", "--trials", "0", "--walls", "3"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith("cyclelab: error: unrecognized arguments: --walls 3\n")


def test_cli_has_no_path_target_option(capsys):
    # alg1 and alg2 check for a cycle after every head query, so
    # --path-target-mult is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["--algo", "alg1", "--n", "2048", "--trials", "0", "--path-target-mult", "nan"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(
        "cyclelab: error: unrecognized arguments: --path-target-mult nan\n"
    )


def test_cli_runs_alg2_with_one_walk_a_colour_test(capsys):
    # one walk gives a unanimous verdict, so alg2 runs with it as alg1 does
    code = main(["--dist", "br", "--algo", "alg2", "--n", "512", "--num-walks", "1",
                 "--trials", "2", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("\nv1,br,alg2,512,") == 2
    assert captured.err == "cyclelab: 2/2 trials found a cycle\n"


def test_cli_unknown_algo_is_usage_error():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--dist", "br", "--algo", "dijkstra", "--n", "4"])


def test_cli_matches_library_output(capsys):
    main(["--dist", "brsimple", "--algo", "walk", "--n", "64", "--trials", "2",
          "--seed", "5"])
    cli_text = capsys.readouterr().out
    lib_text = records_to_csv(run_experiment(walk_config()))
    assert cli_text == lib_text
