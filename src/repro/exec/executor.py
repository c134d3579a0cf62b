"""Grid points and the one function that runs a point.

A :class:`RunPoint` is one cell of an experiment grid.
:func:`execute_point` verifies (scheme runs) and simulates it on a
:class:`~repro.experiments.runner.Runner`, returning the result with the
point's metrics snapshot; the campaign
(:class:`~repro.exec.supervise.CampaignSupervisor`) calls it for every
point that misses the result cache, in-process or on its worker pool.

Every scheme run is gated by the static verifier before simulation: a
point whose schedule has error diagnostics raises :class:`VerifyFailure`,
which the supervisor never retries.  The report is memoised per schedule
by :meth:`~repro.experiments.runner.Runner.verification`, so the gate
costs one verification per compilation, not one per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..experiments.config import ExperimentConfig
from ..experiments.runner import Runner, RunResult
from ..obs.base import Observability
from ..obs.metrics import MetricsRegistry

__all__ = [
    "RunPoint",
    "VerifyFailure",
    "execute_point",
]


@dataclass(frozen=True)
class RunPoint:
    """One cell of the experiment grid."""

    workload: str
    policy: str
    scheme: bool
    config: ExperimentConfig

    def label(self) -> str:
        tag = "scheme" if self.scheme else "plain"
        return f"{self.workload}/{self.policy}/{tag}"


class VerifyFailure(RuntimeError):
    """Static schedule verification failed for a grid point.

    Carries only strings so it pickles cleanly across the process pool.
    """

    def __init__(self, label: str, report_text: str):
        super().__init__(
            f"schedule verification failed for {label}:\n{report_text}"
        )
        self.label = label
        self.report_text = report_text

    def __reduce__(self):
        return (VerifyFailure, (self.label, self.report_text))


def execute_point(
    runner: Runner,
    point: RunPoint,
    metrics: bool = False,
    tracer: Any = None,
) -> tuple[RunResult, Optional[dict[str, Any]]]:
    """Verify (scheme runs) then simulate one grid point on ``runner``.

    Returns ``(result, snapshot)``: ``snapshot`` is the point's metrics
    snapshot when ``metrics`` is set, else ``None``.  With ``metrics`` or
    a ``tracer`` the point runs observed (never from the runner's memo —
    a memoized result carries no telemetry).
    """
    if point.scheme:
        report = runner.verification(point.workload, point.config)
        if report.has_errors:
            raise VerifyFailure(
                point.label(), report.render_text(title=point.label())
            )
    obs = None
    if metrics or tracer is not None:
        if tracer is not None:
            tracer.set_context(point=point.label())
        obs = Observability(
            tracer=tracer, metrics=MetricsRegistry() if metrics else None
        )
    result = runner.run(
        point.workload, point.policy, point.scheme, point.config, obs=obs
    )
    return result, obs.metrics.snapshot() if metrics else None
