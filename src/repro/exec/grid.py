"""Run-grid enumeration for the paper figures.

Each figure driver in :mod:`repro.experiments.figures` walks its grid by
calling ``runner.run(...)`` serially; these helpers enumerate exactly the
:class:`~repro.exec.executor.RunPoint`\\ s each figure will ask for, so the
executor can materialize them (in parallel, through the cache) *before*
the driver runs.  The enumerations reuse the figures module's own sweep
constants — if a sweep changes there, the grid follows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..experiments.config import ExperimentConfig
from ..experiments.figures import (
    APPS,
    CACHE_SWEEP_MB,
    DELTA_SWEEP,
    IONODE_SWEEP,
    THETA_SWEEP,
)
from ..experiments.runner import POLICIES
from .executor import RunPoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.plan import FaultPlan

__all__ = [
    "figure_points",
    "all_figure_points",
    "with_fault_plan",
    "GRID_FIGURES",
]


def _baselines(cfg: ExperimentConfig) -> list[RunPoint]:
    return [RunPoint(app, "default", False, cfg) for app in APPS]


def _policy_grid(cfg: ExperimentConfig, scheme: bool) -> list[RunPoint]:
    # Normalized-energy/degradation figures divide by the default-scheme
    # baseline, so it is part of the grid.
    points = _baselines(cfg)
    points += [
        RunPoint(app, policy, scheme, cfg)
        for app in APPS
        for policy in POLICIES
    ]
    return points


def _benefit_sweep(
    cfg: ExperimentConfig, field: str, values: Sequence
) -> list[RunPoint]:
    # scheme_benefit() compares history with/without the scheme at each
    # swept value.
    points = []
    for value in values:
        swept = cfg.scaled(**{field: value})
        for app in APPS:
            points.append(RunPoint(app, "history", False, swept))
            points.append(RunPoint(app, "history", True, swept))
    return points


def figure_points(
    name: str, cfg: Optional[ExperimentConfig] = None
) -> list[RunPoint]:
    """The run points figure ``name`` consumes (may contain duplicates
    across figures; the executor deduplicates)."""
    from ..experiments.config import default_config

    cfg = cfg or default_config()
    if name == "table2":
        return []
    if name == "table3":
        return _baselines(cfg)
    if name == "fig12a":
        return _baselines(cfg)
    if name == "fig12b":
        return [RunPoint(app, "default", True, cfg) for app in APPS]
    if name in ("fig12c", "fig13a"):
        return _policy_grid(cfg, scheme=False)
    if name in ("fig12d", "fig13b"):
        return _policy_grid(cfg, scheme=True)
    if name == "fig13c":
        return _benefit_sweep(cfg, "n_ionodes", IONODE_SWEEP)
    if name == "fig13d":
        return _benefit_sweep(cfg, "delta", DELTA_SWEEP)
    if name in ("fig14a", "fig14b"):
        return _benefit_sweep(cfg, "theta", THETA_SWEEP)
    if name == "cache":
        return _benefit_sweep(
            cfg, "cache_bytes", [mb * 1024 * 1024 for mb in CACHE_SWEEP_MB]
        )
    raise ValueError(f"unknown figure {name!r}")


def with_fault_plan(
    points: Iterable[RunPoint], plan: Optional["FaultPlan"]
) -> list[RunPoint]:
    """The same grid with ``plan`` installed on every point's config.

    This is how fault plans are enumerated in experiment grids: build
    the clean grid, then derive the faulted variant — the plan rides in
    the config, so cache keys and memo tables separate the two for free.
    """
    return [
        RunPoint(
            p.workload, p.policy, p.scheme,
            p.config.scaled(fault_plan=plan),
        )
        for p in points
    ]


#: Figures with a non-empty run grid, paper order.
GRID_FIGURES = (
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
    "cache",
)


def all_figure_points(
    cfg: Optional[ExperimentConfig] = None,
    names: Iterable[str] = GRID_FIGURES,
) -> list[RunPoint]:
    """Deduplicated union of every named figure's grid, stable order."""
    points: list[RunPoint] = []
    seen: set[RunPoint] = set()
    for name in names:
        for point in figure_points(name, cfg):
            if point not in seen:
                seen.add(point)
                points.append(point)
    return points
