"""Grid-point resolution: what to run, and where results go.

:class:`ExperimentExecutor` does not run anything itself.  It holds the
campaign's configuration (``jobs``, the optional content-addressed
:class:`~repro.exec.cache.ResultCache`, verify gating, observability
outputs) and resolves and stores results:

1. :meth:`~ExperimentExecutor.resolve_cached` dedupes a grid and looks
   every point up in the cache (a hit costs one JSON read, no simulation,
   no worker dispatch);
2. the misses are run by the campaign supervisor
   (:class:`~repro.exec.supervise.CampaignSupervisor`) — in-process or on
   its worker pool — through :func:`execute_point`;
3. each fresh result goes back through
   :meth:`~ExperimentExecutor.store_result` (atomic, content-addressed,
   so concurrent writers are safe).

The executor resolves and stores; the supervisor runs.

Scheme runs are gated by the static verifier before simulation: a point
whose schedule has error diagnostics raises :class:`VerifyFailure`, which
the supervisor never retries.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from ..experiments.config import ExperimentConfig
from ..experiments.runner import Runner, RunResult
from ..obs.base import Observability
from ..obs.metrics import (
    MetricsRegistry,
    merge_snapshots,
    read_snapshot,
    write_snapshot,
)
from .cache import ResultCache, point_digest

__all__ = [
    "RunPoint",
    "VerifyFailure",
    "ExecStats",
    "ExperimentExecutor",
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


@dataclass
class ExecStats:
    """What an executor's campaigns actually did (points seen, cache
    hits, points simulated)."""

    points: int = 0
    cache_hits: int = 0
    simulated: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "points": self.points,
            "cache_hits": self.cache_hits,
            "simulated": self.simulated,
        }


class ExperimentExecutor:
    """Cache resolution, result storage and observability outputs for a
    grid of run points (the supervisor does the running)."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        verify: bool = True,
        metrics_dir: Optional[Union[str, Path]] = None,
        trace_path: Optional[Union[str, Path]] = None,
        trace_detail: bool = False,
    ):
        """``jobs`` is the worker count the supervisor runs misses on.
        ``metrics_dir`` makes every simulated point write a per-point
        metrics snapshot (digest-named, safe under parallel workers);
        merge with :func:`merge_metrics_dir`.  ``trace_path`` streams
        span events for every point into one JSONL file — the supervisor
        runs traced misses serially, because interleaving concurrent runs
        into one ordered stream would be nondeterministic.
        ``trace_detail`` adds per-operation records (MPI-IO calls, disk
        requests, network transfers, I/O-node ops) to the lifecycle
        trace.  Either option also disables result-cache *reads* (a cache
        hit would produce no telemetry); fresh results are still written
        back.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1: {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.verify = verify
        self.metrics_dir = (
            str(metrics_dir) if metrics_dir is not None else None
        )
        self.trace_path = Path(trace_path) if trace_path is not None else None
        self.trace_detail = trace_detail
        self.stats = ExecStats()

    @property
    def observed(self) -> bool:
        """Whether this executor emits telemetry for the points it runs."""
        return self.metrics_dir is not None or self.trace_path is not None

    def resolve_cached(
        self, points: Iterable[RunPoint]
    ) -> tuple[dict[RunPoint, RunResult], list[RunPoint]]:
        """Dedupe ``points`` and resolve them against the cache.

        Returns ``(results, misses)``; updates ``stats.points`` and
        ``stats.cache_hits``.  Observed executors never read the cache
        (a hit would carry no telemetry).
        """
        unique: list[RunPoint] = []
        seen: set[RunPoint] = set()
        for point in points:
            if point not in seen:
                seen.add(point)
                unique.append(point)

        results: dict[RunPoint, RunResult] = {}
        misses: list[RunPoint] = []
        for point in unique:
            cached = None
            if self.cache is not None and not self.observed:
                cached = self.cache.lookup(
                    point.config, point.workload, point.policy, point.scheme
                )
            if cached is not None:
                results[point] = cached
                self.stats.cache_hits += 1
            else:
                misses.append(point)
        self.stats.points += len(unique)
        return results, misses

    def store_result(self, point: RunPoint, result: RunResult) -> None:
        """Persist one fresh result (no-op without a cache)."""
        if self.cache is not None:
            self.cache.store(
                point.config, point.workload, point.policy, point.scheme,
                result,
            )

    def open_tracer(self):
        """The serial-pass tracer, or None when tracing is off."""
        if self.trace_path is None:
            return None
        from ..obs.tracer import JsonlTracer

        return JsonlTracer(self.trace_path, detail=self.trace_detail)

    def point_observability(
        self, tracer, point: RunPoint
    ) -> Optional[Observability]:
        """The per-point observability context for a serial pass."""
        if not self.observed:
            return None
        registry = (
            MetricsRegistry() if self.metrics_dir is not None else None
        )
        if tracer is not None:
            tracer.set_context(point=point.label())
        return Observability(tracer=tracer, metrics=registry)

    def write_point_metrics(
        self, obs: Optional[Observability], point: RunPoint
    ) -> None:
        """Flush one point's metrics snapshot (no-op without metrics)."""
        if obs is not None and obs.metrics is not None:
            write_snapshot(
                obs.metrics.snapshot(),
                metrics_path_for(self.metrics_dir, point),
            )
