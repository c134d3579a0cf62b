"""Experiment harness: Table II configuration, memoizing runner, and one
driver per table/figure of the paper's evaluation (§V)."""

from .config import ExperimentConfig, bench_scale, default_config
from .figures import (
    APPS,
    FigureResult,
    cache_sensitivity,
    fig12a,
    fig12b,
    fig12c,
    fig12d,
    fig13a,
    fig13b,
    fig13c,
    fig13d,
    fig14a,
    fig14b,
    make_runner,
    table2_rows,
    table3,
)
from .runner import (
    ONLINE_POLICIES,
    POLICIES,
    Runner,
    RunResult,
)
from .tournament import (
    DEFAULT_ENTRANTS,
    SCENARIOS,
    Entrant,
    run_tournament,
    write_tournament_record,
)

__all__ = [
    "ExperimentConfig",
    "default_config",
    "bench_scale",
    "Runner",
    "RunResult",
    "POLICIES",
    "ONLINE_POLICIES",
    "Entrant",
    "DEFAULT_ENTRANTS",
    "SCENARIOS",
    "run_tournament",
    "write_tournament_record",
    "APPS",
    "FigureResult",
    "make_runner",
    "table2_rows",
    "table3",
    "fig12a",
    "fig12b",
    "fig12c",
    "fig12d",
    "fig13a",
    "fig13b",
    "fig13c",
    "fig13d",
    "fig14a",
    "fig14b",
    "cache_sensitivity",
]
