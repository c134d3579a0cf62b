"""Grid points and the one function that runs a point.

A :class:`RunPoint` is one cell of an experiment grid.
:func:`execute_point` verifies (scheme runs) and simulates it on a
:class:`~repro.experiments.runner.Runner`; the campaign
(:class:`~repro.exec.supervise.CampaignSupervisor`) calls it for every
point that misses the result cache, in-process or on its worker pool.
:func:`metrics_path_for` and :func:`merge_metrics_dir` name and merge the
per-point metrics snapshots an observed campaign writes.

Scheme runs are gated by the static verifier before simulation: a point
whose schedule has error diagnostics raises :class:`VerifyFailure`, which
the supervisor never retries.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..experiments.config import ExperimentConfig
from ..experiments.runner import Runner, RunResult
from ..obs.base import Observability
from ..obs.metrics import merge_snapshots, read_snapshot
from .cache import point_digest

__all__ = [
    "RunPoint",
    "VerifyFailure",
    "execute_point",
    "metrics_path_for",
    "merge_metrics_dir",
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
    verify: bool = True,
    obs: Optional[Observability] = None,
) -> RunResult:
    """Verify (scheme runs) then simulate one grid point on ``runner``.

    With an enabled ``obs`` the point runs instrumented (never from the
    result cache — cached entries carry no telemetry).
    """
    cfg = point.config
    if verify and point.scheme:
        report = runner.verification(point.workload, cfg)
        if report.has_errors:
            raise VerifyFailure(
                point.label(), report.render_text(title=point.label())
            )
    if obs is not None and obs.enabled:
        return runner.run_instrumented(
            point.workload, point.policy, point.scheme, obs, config=cfg
        )
    return runner.run(
        point.workload, point.policy, point.scheme, config=cfg
    )


def metrics_path_for(metrics_dir: Union[str, Path], point: RunPoint) -> Path:
    """Per-point snapshot file, named by the point's content digest so
    concurrent workers never collide and reruns overwrite in place."""
    digest = point_digest(
        point.config, point.workload, point.policy, point.scheme
    )
    return Path(metrics_dir) / f"{digest}.metrics.json"


def merge_metrics_dir(metrics_dir: Union[str, Path]) -> dict:
    """Merge every per-point snapshot under ``metrics_dir`` into one.

    Files are read in sorted-name order, but the merge is commutative, so
    worker completion order can never change the result.
    """
    paths = sorted(Path(metrics_dir).glob("*.metrics.json"))
    return merge_snapshots(read_snapshot(p) for p in paths)
