"""The public API, pinned: adding or removing a name in ``cyclelab.__all__`` shows up here.

    PYTHONPATH=src python3 tests/test_public_api.py

prints the size of the API and of the package, the two numbers a change
to either reports.
"""

from pathlib import Path

import cyclelab

PUBLIC_NAMES = [
    "BLUE",
    "BRPair",
    "BRParams",
    "ColorEstimate",
    "Coloring",
    "ConfigError",
    "Digraph",
    "EpochDecomposition",
    "EpochReason",
    "EpochStats",
    "ExperimentConfig",
    "FinderOutcome",
    "IndexOutOfRange",
    "InfeasibleSampling",
    "InsufficientData",
    "InvalidParams",
    "NoValidLayering",
    "OddVertexCount",
    "Oracle",
    "QueryModel",
    "QueryRecord",
    "ScalingFit",
    "TrialRecord",
    "VertexOutOfRange",
    "Wall",
    "analysis",
    "ancestor_count",
    "auto_params",
    "build_wall",
    "decompose_epochs",
    "detect_cycle",
    "epoch_stats",
    "finders",
    "fit_scaling",
    "gen_br_graph",
    "gen_br_pair",
    "gen_br_simple",
    "gen_coloring",
    "graphs",
    "harness",
    "identify_color",
    "max_blue_path",
    "new_oracle",
    "oracle",
    "records_to_csv",
    "run_algorithm1",
    "run_algorithm2",
    "run_bfs_heuristic",
    "run_birthday_sampler",
    "run_experiment",
    "run_random_walk_finder",
    "run_trial",
    "verify_cycle",
    "wall_identify",
]


def package_lines() -> int:
    """Lines of every module of the package, as ``wc -l`` counts them."""
    return sum(
        path.read_bytes().count(b"\n") for path in Path(cyclelab.__file__).parent.glob("*.py")
    )


def sizes() -> str:
    return f"cyclelab.__all__: {len(cyclelab.__all__)} names; src/cyclelab: {package_lines()} lines"


def test_public_names_are_pinned():
    print(sizes())
    assert sorted(cyclelab.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 54


if __name__ == "__main__":
    print(sizes())
