"""Random layered digraphs, query oracles, and sublinear cycle finders."""

from .analysis import (
    EpochDecomposition,
    EpochReason,
    EpochStats,
    ancestor_count,
    decompose_epochs,
    epoch_stats,
    max_blue_path,
)
from .finders import (
    ColorEstimate,
    FinderOutcome,
    Wall,
    build_wall,
    identify_color,
    run_algorithm1,
    run_algorithm2,
    run_bfs_heuristic,
    run_birthday_sampler,
    run_random_walk_finder,
    wall_identify,
)
from .graphs import (
    BLUE,
    BRPair,
    BRParams,
    Coloring,
    Digraph,
    InfeasibleSampling,
    InvalidParams,
    NoValidLayering,
    OddVertexCount,
    auto_params,
    gen_br_graph,
    gen_br_pair,
    gen_br_simple,
    gen_coloring,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    InsufficientData,
    ScalingFit,
    TrialRecord,
    fit_scaling,
    records_to_csv,
    run_experiment,
    run_trial,
)
from .oracle import (
    IndexOutOfRange,
    Oracle,
    QueryModel,
    QueryRecord,
    VertexOutOfRange,
    detect_cycle,
    new_oracle,
    verify_cycle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
