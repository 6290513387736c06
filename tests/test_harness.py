"""Experiment harness, CSV output, scaling fits, graph files, and the CLI."""

import inspect
import re

import numpy as np
import pytest

from cyclelab import (
    BRPair,
    ConfigError,
    Digraph,
    ExperimentConfig,
    InsufficientData,
    ParseError,
    TrialRecord,
    fit_scaling,
    gen_br_pair,
    gen_br_simple,
    load_graph,
    records_to_csv,
    run_algorithm1,
    run_algorithm2,
    run_bfs_heuristic,
    run_birthday_sampler,
    run_experiment,
    run_random_walk_finder,
    run_trial,
    save_graph,
    validate_br,
    write_csv,
)
from cyclelab import harness
from cyclelab.cli import build_parser, main
from cyclelab.graphs import BRParams


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
    with pytest.raises(ConfigError):
        walk_config(walls=-1).validate()  # used to run as zero walls
    with pytest.raises(ConfigError):
        walk_config(wall_p=0).validate()  # used to run as depth-0 walls
    with pytest.raises(ConfigError):
        walk_config(wall_p=-5).validate()
    with pytest.raises(ConfigError):
        walk_config(base_seed=-1).validate()  # numpy refuses a negative seed
    with pytest.raises(ConfigError):
        walk_config(path_target_mult=0).validate()  # a path target of zero
    with pytest.raises(ConfigError):
        walk_config(path_target_mult=-1).validate()
    for mult in (float("nan"), float("inf"), 1e308):  # math.ceil raised on these
        with pytest.raises(ConfigError, match=r"^path_target_mult \* sqrt\(n\) must be finite$"):
            walk_config(dist="br", algo="alg1", n=2048, d=8, path_target_mult=mult).validate()
    walk_config(dist="br", algo="alg1", n=2048, d=8, path_target_mult=1e300).validate()
    walk_config().validate()
    walk_config(dist="br", algo="alg2", walls=0).validate()  # a wallless alg2 run
    walk_config(dist="br", algo="alg2", wall_p=1).validate()
    walk_config(base_seed=0).validate()


# each finder option, a value other than its default, and the finders that read it
FINDER_OPTIONS = [
    ("walls", 3, {"alg2"}),
    ("wall_p", 5, {"alg2"}),
    ("reps", 2, {"bfs"}),
    ("explore_budget", 10, {"bfs"}),
    ("num_walks", 3, {"alg1", "alg2"}),
    ("path_target_mult", 1.5, {"alg1", "alg2"}),
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


def test_trials_stop_on_the_meter_alone(capsys):
    finders = (run_random_walk_finder, run_birthday_sampler, run_algorithm1, run_algorithm2,
               run_bfs_heuristic)
    for finder in finders:
        assert "deadline" not in inspect.signature(finder).parameters, finder.__name__
    for finder in (run_algorithm1, run_algorithm2):
        assert "max_walk_len" not in inspect.signature(finder).parameters, finder.__name__
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


def test_write_csv(tmp_path):
    path = tmp_path / "out.csv"
    write_csv([GOLDEN_RECORD], path)
    assert path.read_text() == records_to_csv([GOLDEN_RECORD])


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


# -- graph files -------------------------------------------------------------------


def test_layered_pair_round_trip(tmp_path):
    pair = gen_br_pair(BRParams(16, 4, 8, 3), np.random.default_rng(31))
    path = tmp_path / "pair.txt"
    save_graph(pair, path)
    back = load_graph(path)
    assert isinstance(back, BRPair)
    assert back.params == pair.params
    assert np.array_equal(back.coloring.layer_by_vertex, pair.coloring.layer_by_vertex)
    for left, right in zip(back.graph.edge_arrays(), pair.graph.edge_arrays()):
        assert np.array_equal(left, right)
    assert validate_br(back) == []


def test_plain_graph_round_trip(tmp_path):
    g = gen_br_simple(20, 2, np.random.default_rng(32))
    path = tmp_path / "simple.txt"
    save_graph(g, path)
    back = load_graph(path)
    assert isinstance(back, Digraph)
    assert sorted(back.edges()) == sorted(g.edges())


HAND_FILE = """\
BR v=12 d=2 L=4 W=2 N=4
b b b b r1 r1 r2 r2 r3 r3 r4 r4
0: 1 4
1: 2 5
2: 3 4
3: 0 5
4: 6 7
5: 6 7
6: 8 9
7: 8 9
8: 10 11
9: 10 11
10:
11:
"""


def test_hand_written_file_loads_and_validates(tmp_path):
    path = tmp_path / "hand.txt"
    path.write_text(HAND_FILE)
    pair = load_graph(path)
    assert isinstance(pair, BRPair)
    assert validate_br(pair) == []
    assert pair.graph.out_list(0) == (1, 4)
    assert pair.graph.out_list(10) == ()


@pytest.mark.parametrize(
    "content, line",
    [
        ("", 1),
        ("BOGUS v=4 d=2\n", 1),
        ("BR v=12 d=2 L=4 W=2\n", 1),  # header missing N
        ("BR v=12 d=x L=4 W=2 N=4\n", 1),
        ("BR v=13 d=2 L=4 W=2 N=4\n", 1),  # v disagrees with N
        ("BR v=12 d=2 L=4 W=2 N=4\n", 2),  # coloring line absent
        ("BR v=12 d=2 L=4 W=2 N=4\nb b\n", 2),
        ("BRS v=2 d=1\n0: 1\n1 0\n", 3),  # missing colon
        ("BRS v=2 d=1\n0: 1\n1: 5\n", 3),  # target out of range
        ("BRS v=2 d=1\n0: 1\n1: 0\nextra\n", 4),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, content, line):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ParseError) as info:
        load_graph(path)
    assert info.value.line == line


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
    # math.ceil raised on a path target that is not finite
    code = main(["--dist", "br", "--algo", "alg1", "--n", "2048", "--d", "8", "--trials", "1",
                 "--path-target-mult", "nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "cyclelab: path_target_mult * sqrt(n) must be finite\n"
    code = main(["--dist", "br", "--algo", "alg2", "--n", "64", "--trials", "1",
                 "--walls", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "cyclelab: walls must be >= 0\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--layers", "0"], "layers must be even and >= 2, got 0"),
        (["--layers", "-4"], "layers must be even and >= 2, got -4"),
        (["--d", "1"], "outdeg must be >= 2, got 1"),
        (["--layers", "4096"], "outdeg 2 exceeds layer width 1"),
        (["--n", "3", "--d", "8"], "no even divisor of 6 within a factor 4 of 1.489"),
        (["--dist", "brsimple", "--n", "3"], "brsimple needs an even n, got 3"),
        # values that ran as depth-0 walls or ended in numpy's seed traceback
        (["--algo", "alg2", "--wall-p", "-5"], "wall_p must be >= 1"),
        (["--algo", "alg2", "--wall-p", "0"], "wall_p must be >= 1"),
        (["--seed", "-1"], "seed must be >= 0"),
        # finder options that the chosen finder would ignore
        (["--algo", "alg1", "--walls", "3", "--wall-p", "5"],
         "walls applies only to alg2, not alg1"),
        (["--num-walks", "3"], "num_walks applies only to alg1 and alg2, not walk"),
        (["--algo", "alg2", "--reps", "2"], "reps applies only to bfs, not alg2"),
    ],
)
def test_cli_rejects_bad_instance_shapes(args, message, capsys):
    # checked up front, so even a run of no trials is refused with one line
    code = main(["--algo", "walk", "--n", "2048", "--trials", "0", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"cyclelab: {message}\n"


def test_cli_unknown_algo_is_usage_error():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--dist", "br", "--algo", "dijkstra", "--n", "4"])


def test_cli_matches_library_output(capsys):
    main(["--dist", "brsimple", "--algo", "walk", "--n", "64", "--trials", "2",
          "--seed", "5"])
    cli_text = capsys.readouterr().out
    lib_text = records_to_csv(run_experiment(walk_config()))
    assert cli_text == lib_text
