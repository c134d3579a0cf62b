"""Run grids of the paper figures, read off the figures themselves.

A figure's grid is exactly the runs its driver in
:mod:`repro.experiments.figures` reads.  :func:`figure_points` finds them
by rendering the driver once against a recording runner: each memo miss
records a :class:`~repro.exec.executor.RunPoint` and answers with a stub
result instead of simulating, so enumerating a grid builds no trace and
runs nothing.  The campaign then materializes the points (in parallel,
through the cache) before the real render, which finds every one in its
runner's memo.  Driver arguments (sweep values, app subsets) narrow the
grid the same way they narrow the figure.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..experiments.config import ExperimentConfig, default_config
from ..experiments.figures import FIGURES
from ..experiments.runner import Runner, RunResult
from ..metrics.idle import idle_cdf
from .executor import RunPoint

__all__ = [
    "figure_points",
    "all_figure_points",
    "GRID_FIGURES",
]

#: Figures with a non-empty run grid, paper order (Table II reads only
#: the configuration).
GRID_FIGURES = tuple(name for name in FIGURES if name != "table2")


class _RecordingRunner(Runner):
    """A runner whose every memo miss records its point, not a result.

    The stub has unit time and energy, so every ratio a figure takes is
    defined and the render runs to the end.
    """

    def __init__(self, config: ExperimentConfig):
        super().__init__(config)
        self.points: list[RunPoint] = []

    def _simulate(self, workload, policy, scheme, cfg, obs=None) -> RunResult:
        self.points.append(RunPoint(workload, policy, scheme, cfg))
        return RunResult(
            workload=workload, policy=policy, scheme=scheme,
            execution_time=1.0, energy_joules=1.0, idle_cdf=idle_cdf([]),
            idle_periods=[], energy_breakdown={}, buffer_hits=0,
            prefetches=0, accesses=0,
        )


def figure_points(
    name: str, cfg: Optional[ExperimentConfig] = None, **figure_kwargs
) -> list[RunPoint]:
    """The run points figure ``name`` reads when rendered with
    ``figure_kwargs``, deduplicated, in first-read order."""
    if name not in FIGURES:
        raise ValueError(f"unknown figure {name!r}")
    recorder = _RecordingRunner(cfg or default_config())
    FIGURES[name](recorder, **figure_kwargs)
    return recorder.points


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
