"""Campaign supervision: the one code path that runs grid points.

:class:`CampaignSupervisor` takes the cache misses an
:class:`~repro.exec.executor.ExperimentExecutor` resolved and runs them —
in-process for ``jobs <= 1`` (or a traced campaign), otherwise on a
``ProcessPoolExecutor`` whose workers each keep one process-global
:class:`~repro.experiments.runner.Runner`, so traces and compilations are
built once per *worker*, not once per point.  Every fresh result is
stored through the executor the moment its point completes.  Around that
sits the machinery a multi-hour figure campaign needs to survive partial
failure:

* **watchdog timeout** — a point that exceeds ``timeout`` seconds has
  its (unkillable-in-place) worker pool torn down and respawned; the
  point retries, its innocent pool-mates are requeued at no attempt
  cost;
* **bounded retry with deterministic seeded backoff** — every retry
  delay is a pure function of ``(point digest, attempt)``, so two runs
  of the same failing campaign back off identically;
* **worker-crash recovery** — a ``BrokenProcessPool`` respawns the pool
  and requeues the unfinished points.  Because a pool break cannot name
  its killer, the supervisor drops to *solo mode* (one in-flight point
  at a time) until a point completes: in solo mode blame is exact, so a
  point that breaks its pool ``quarantine_after`` times is quarantined
  without taking innocent siblings with it.  If the pool keeps breaking
  (``max_pool_breaks`` consecutive times) the supervisor degrades to
  serial in-process execution for the remainder;
* **campaign journal** — a JSONL log of ``(point digest, outcome)``
  written (appended, flushed, fsynced) as each point resolves.  The
  journal stores *only* digests and outcomes, never results — all data
  flows through the content-addressed result cache — so a resumed
  campaign is bit-identical to an uninterrupted one by construction.
  ``repro resume <journal>`` re-dispatches the argv recorded in the
  journal header; previously-finished points come back as cache hits;
* **partial-failure reporting** — with ``keep_going`` every failure is
  collected into the :class:`CampaignReport` while the rest of the
  campaign completes; without it (fail-fast) the first resolved failure
  raises, after completed siblings' results have been preserved.

Outcome vocabulary (journal + report): ``ok``, ``cached``, ``failed``,
``timeout``, ``quarantined``, plus the intermediate ``retried``.

Determinism: supervision never touches point digests, cache keys or
simulation semantics — a fault-free campaign is byte-identical at any
``jobs`` and to a direct :class:`~repro.experiments.runner.Runner` run
(locked in by the tests).
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Union

from ..experiments.runner import Runner, RunResult
from ..obs.base import Observability
from ..obs.metrics import MetricsRegistry, write_snapshot
from .cache import point_digest
from .executor import (
    ExperimentExecutor,
    RunPoint,
    VerifyFailure,
    execute_point,
    metrics_path_for,
)
from .journal import DurableJournal
from .serialize import (
    JOURNAL_SCHEMA_VERSION,
    journal_entry,
    journal_header,
)

__all__ = [
    "OUTCOME_OK",
    "OUTCOME_CACHED",
    "OUTCOME_FAILED",
    "OUTCOME_TIMEOUT",
    "OUTCOME_QUARANTINED",
    "OUTCOME_RETRIED",
    "OUTCOMES",
    "BOUNDARY_ERRORS",
    "WorkerFailure",
    "PointTimeout",
    "CampaignFailed",
    "SupervisorPolicy",
    "backoff_delay",
    "CampaignJournal",
    "load_journal",
    "PointFailure",
    "CampaignReport",
    "CampaignSupervisor",
]

OUTCOME_OK = "ok"
OUTCOME_CACHED = "cached"
OUTCOME_FAILED = "failed"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_QUARANTINED = "quarantined"
OUTCOME_RETRIED = "retried"

#: Terminal outcomes first, then the intermediate retry marker.
OUTCOMES = (
    OUTCOME_OK,
    OUTCOME_CACHED,
    OUTCOME_FAILED,
    OUTCOME_TIMEOUT,
    OUTCOME_QUARANTINED,
    OUTCOME_RETRIED,
)

#: Retry-backoff histogram bounds (seconds) for ``exec.retry_backoff_s``.
RETRY_BACKOFF_BOUNDS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0)


class WorkerFailure(RuntimeError):
    """A worker-side exception, flattened to strings for the pool.

    Arbitrary exceptions raised inside a point (simulation bugs, bad
    configs) may not pickle; arriving as an opaque ``PicklingError``
    would defeat the whole report.  The supervised worker entry point
    therefore wraps everything except :class:`VerifyFailure` into this —
    label, original type name, message and formatted traceback, all
    plain strings.
    """

    def __init__(
        self, label: str, kind: str, message: str, traceback_text: str = ""
    ):
        super().__init__(f"{label}: {kind}: {message}")
        self.label = label
        self.kind = kind
        self.message = message
        self.traceback_text = traceback_text

    def __reduce__(self):
        return (
            WorkerFailure,
            (self.label, self.kind, self.message, self.traceback_text),
        )


class PointTimeout(RuntimeError):
    """A point exhausted its retries against the watchdog timeout."""

    def __init__(self, label: str, seconds: float, attempts: int):
        super().__init__(
            f"{label}: no result within {seconds:g}s "
            f"(watchdog fired on all {attempts} attempt(s))"
        )
        self.label = label
        self.seconds = seconds
        self.attempts = attempts

    def __reduce__(self):
        return (PointTimeout, (self.label, self.seconds, self.attempts))


class CampaignFailed(RuntimeError):
    """Raised by :meth:`CampaignReport.raise_if_failed` — every collected
    point failure, not just the first."""

    def __init__(self, failures: list["PointFailure"]):
        lines = [f"{len(failures)} point(s) failed:"]
        lines += [
            f"  {f.label} [{f.outcome}] after {f.attempts + 1} attempt(s): "
            f"{f.error}"
            for f in failures
        ]
        super().__init__("\n".join(lines))
        self.failures = failures

    def __reduce__(self):
        return (CampaignFailed, (self.failures,))


#: Exception types that legitimately cross the worker/parent process
#: boundary.  Every member must round-trip through pickle with its
#: payload intact (``tests/test_exec_pickling.py`` enforces this), so a
#: worker error can never arrive as an opaque ``PicklingError``.
BOUNDARY_ERRORS: tuple[type, ...] = (VerifyFailure, WorkerFailure)


# ----------------------------------------------------------------------
# Worker side.  One Runner per worker process: traces and compilations are
# memoized across every point the worker serves (the memo keys include the
# relevant config fields, so sweep points share their workload trace).
# ----------------------------------------------------------------------
_WORKER_RUNNER: Optional[Runner] = None


def _worker_run(
    point: RunPoint, verify: bool, metrics_dir: Optional[str] = None
) -> RunResult:
    global _WORKER_RUNNER
    if _WORKER_RUNNER is None:
        _WORKER_RUNNER = Runner(point.config)
    obs = None
    if metrics_dir is not None:
        obs = Observability(metrics=MetricsRegistry())
    result = execute_point(_WORKER_RUNNER, point, verify=verify, obs=obs)
    if obs is not None:
        write_snapshot(
            obs.metrics.snapshot(), metrics_path_for(metrics_dir, point)
        )
    return result


def _supervised_worker_run(
    point: RunPoint, verify: bool, metrics_dir: Optional[str] = None
) -> RunResult:
    """Worker entry point that guarantees picklable failure.

    :class:`VerifyFailure` already crosses the pool cleanly and callers
    key on it (non-retryable); anything else is flattened into a
    :class:`WorkerFailure` carrying the original traceback text.
    """
    import traceback

    try:
        return _worker_run(point, verify, metrics_dir)
    except VerifyFailure:
        raise
    except Exception as exc:
        raise WorkerFailure(
            point.label(),
            type(exc).__name__,
            str(exc),
            traceback.format_exc(),
        ) from None


# ----------------------------------------------------------------------
# Policy and deterministic backoff
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisorPolicy:
    """Tunable supervision knobs (all orthogonal to simulation inputs)."""

    #: Watchdog seconds per attempt; None disables the watchdog.
    timeout: Optional[float] = None
    #: Extra attempts after the first, per point.
    retries: int = 1
    #: First-retry backoff (seconds); doubles per attempt up to the cap.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Quarantine a point after this many pool breaks blamed on it.
    quarantine_after: int = 2
    #: Consecutive pool breaks before degrading to serial execution.
    max_pool_breaks: int = 3
    #: Collect failures and keep running (vs fail-fast on the first).
    keep_going: bool = False

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0: {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0: {self.retries}")
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1: {self.quarantine_after}"
            )
        if self.max_pool_breaks < 1:
            raise ValueError(
                f"max_pool_breaks must be >= 1: {self.max_pool_breaks}"
            )


def backoff_delay(
    digest: str, attempt: int, base: float = 0.05, cap: float = 2.0
) -> float:
    """Deterministic jittered exponential backoff.

    A pure function of ``(digest, attempt)``: the jitter comes from a
    ``random.Random`` seeded with their hash, so identical campaigns
    back off identically (the same replay-determinism contract the fault
    injector's named streams follow) while distinct points still spread
    out instead of thundering back together.
    """
    if attempt < 1:
        return 0.0
    seed = int.from_bytes(
        hashlib.sha256(f"{digest}:{attempt}".encode("utf-8")).digest()[:8],
        "big",
    )
    jitter = 0.5 + random.Random(seed).random() / 2  # [0.5, 1.0)
    return min(cap, base * (2.0 ** (attempt - 1))) * jitter


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class CampaignJournal(DurableJournal):
    """Append-only JSONL outcome log, valid after any line boundary.

    A :class:`~repro.exec.journal.DurableJournal` (one fsync'd line per
    record, truncated-tail-tolerant loader — the same substrate the
    scheduling server's admission WAL rides) specialized to campaign
    outcomes: a SIGINT (or SIGKILL) between points can at worst truncate
    the final line, which the loader skips.  Results never enter the
    journal; they live in the content-addressed cache, keeping resume
    bit-identical for free.
    """

    def __init__(
        self, path: Union[str, Path], argv: Optional[list[str]] = None
    ):
        fresh = not Path(path).exists() or Path(path).stat().st_size == 0
        if fresh and argv is None:
            raise ValueError(
                "a new journal needs the campaign argv for its header"
            )
        super().__init__(
            path, header=journal_header(argv) if argv is not None else None
        )

    def record(
        self, digest: str, label: str, outcome: str, attempts: int = 0
    ) -> None:
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.append(journal_entry(digest, label, outcome, attempts))


def load_journal(
    path: Union[str, Path]
) -> tuple[dict[str, Any], dict[str, dict[str, Any]]]:
    """Read a journal back: ``(header, last entry per digest)``.

    Entries are last-write-wins per digest (a ``retried`` line is later
    overwritten by the point's terminal outcome); truncated or blank
    lines are skipped.
    """
    header: Optional[dict[str, Any]] = None
    entries: dict[str, dict[str, Any]] = {}
    for record in DurableJournal.load(path):
        if record.get("kind") == "campaign-journal":
            if record.get("schema") != JOURNAL_SCHEMA_VERSION:
                raise ValueError(
                    f"journal schema {record.get('schema')!r} != "
                    f"current {JOURNAL_SCHEMA_VERSION}"
                )
            header = record
        elif "digest" in record:
            entries[record["digest"]] = record
    if header is None:
        raise ValueError(f"{path}: not a campaign journal (no header line)")
    return header, entries


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PointFailure:
    """One point's terminal failure, flattened for reporting."""

    label: str
    digest: str
    outcome: str  # failed | timeout | quarantined
    error: str
    attempts: int


@dataclass
class CampaignReport:
    """What a supervised campaign actually did, failures included."""

    results: dict[RunPoint, RunResult] = field(default_factory=dict)
    outcomes: dict[str, str] = field(default_factory=dict)  # digest → outcome
    failures: list[PointFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures and not self.interrupted

    def counts(self) -> dict[str, int]:
        out = {outcome: 0 for outcome in OUTCOMES if outcome != "retried"}
        for outcome in self.outcomes.values():
            out[outcome] = out.get(outcome, 0) + 1
        return out

    def summary(self) -> str:
        counts = self.counts()
        bits = [f"{name}={n}" for name, n in counts.items() if n]
        if self.retries:
            bits.append(f"retries={self.retries}")
        if self.worker_deaths:
            bits.append(f"worker_deaths={self.worker_deaths}")
        status = "interrupted" if self.interrupted else (
            "ok" if self.ok else "failed"
        )
        return f"campaign {status}: " + " ".join(bits or ["empty"])

    def raise_if_failed(self) -> None:
        if self.failures:
            raise CampaignFailed(list(self.failures))


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class _Task:
    """Mutable per-point supervision state (attempts, blame)."""

    __slots__ = ("point", "digest", "label", "attempts", "deaths")

    def __init__(self, point: RunPoint):
        self.point = point
        self.digest = point_digest(
            point.config, point.workload, point.policy, point.scheme
        )
        self.label = point.label()
        self.attempts = 0  # failed attempts so far
        self.deaths = 0  # pool breaks blamed on this point


class CampaignSupervisor:
    """Retrying, journaling, crash-recovering runner for a point grid.

    Runs the misses of an :class:`ExperimentExecutor` (which contributes
    jobs/cache/verify/observability configuration and ``stats``) without
    touching any determinism contract: every point goes through
    :func:`execute_point`, results are stored under their content
    digests, and a fault-free campaign is bit-identical at any ``jobs``.

    Each result is stored the moment its point completes.  That
    per-point checkpointing is what makes SIGINT/SIGKILL cheap: an
    interrupted campaign has lost only its in-flight points.
    """

    def __init__(
        self,
        executor: ExperimentExecutor,
        policy: Optional[SupervisorPolicy] = None,
        journal: Optional[CampaignJournal] = None,
        metrics: Optional[MetricsRegistry] = None,
        worker_fn: Optional[Callable[..., RunResult]] = None,
    ):
        self.executor = executor
        self.policy = policy or SupervisorPolicy()
        self.journal = journal
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Pre-register so a --metrics snapshot always carries the exec.*
        # family, zeros included.
        for name in (
            "exec.retries",
            "exec.worker_deaths",
            "exec.timeouts",
            "exec.quarantined",
        ):
            self.metrics.counter(name)
        self.metrics.histogram(
            "exec.retry_backoff_s", RETRY_BACKOFF_BOUNDS
        )
        # Injection point for tests (hung/killer stub workers); must be a
        # module-level callable with _worker_run's signature.
        self._worker_fn = worker_fn or _supervised_worker_run

    # ------------------------------------------------------------------
    def run_points(self, points: Iterable[RunPoint]) -> CampaignReport:
        """Resolve every point under supervision; returns the report.

        Fail-fast (default): the first terminal failure raises, after
        completed results have been journaled and cached.  With
        ``keep_going`` all failures are collected on the report instead.
        """
        report = CampaignReport()
        cached, misses = self.executor.resolve_cached(points)
        report.results.update(cached)
        for point, _result in cached.items():
            task = _Task(point)
            self._journal(task, OUTCOME_CACHED)
            report.outcomes[task.digest] = OUTCOME_CACHED

        tasks = [_Task(point) for point in misses]
        try:
            if tasks:
                serial = (
                    self.executor.jobs <= 1
                    or len(tasks) == 1
                    or self.executor.trace_path is not None
                )
                if serial:
                    self._run_serial(tasks, report)
                else:
                    self._run_pool(tasks, report)
        except KeyboardInterrupt:
            report.interrupted = True
            self._flush_metrics()
            raise
        self._flush_metrics()
        return report

    def warm_runner(
        self, runner: Runner, points: Iterable[RunPoint]
    ) -> CampaignReport:
        """:meth:`run_points`, then seed the results into ``runner``'s
        memo table, so figure functions find every grid cell materialized
        and never fall back to in-process simulation."""
        report = self.run_points(points)
        for point, result in report.results.items():
            runner.seed_result(
                point.workload, point.policy, point.scheme, point.config,
                result,
            )
        return report

    # ------------------------------------------------------------------
    # Outcome plumbing
    # ------------------------------------------------------------------
    def _journal(self, task: _Task, outcome: str) -> None:
        if self.journal is not None:
            self.journal.record(
                task.digest, task.label, outcome, task.attempts
            )

    def _complete(
        self, task: _Task, result: RunResult, report: CampaignReport
    ) -> None:
        report.results[task.point] = result
        report.outcomes[task.digest] = OUTCOME_OK
        # Checkpoint now, not at campaign end: this is what an
        # interrupted campaign resumes from.
        self.executor.store_result(task.point, result)
        self.executor.stats.simulated += 1
        self._journal(task, OUTCOME_OK)

    def _fail(
        self,
        task: _Task,
        outcome: str,
        error: BaseException,
        report: CampaignReport,
    ) -> None:
        """Record a terminal failure; raises unless ``keep_going``."""
        report.outcomes[task.digest] = outcome
        report.failures.append(
            PointFailure(
                label=task.label,
                digest=task.digest,
                outcome=outcome,
                error=str(error),
                attempts=task.attempts,
            )
        )
        if outcome == OUTCOME_QUARANTINED:
            self.metrics.counter("exec.quarantined").inc()
        self._journal(task, outcome)
        if not self.policy.keep_going:
            raise error

    def _backoff(self, task: _Task, report: CampaignReport) -> float:
        """Count one retry; returns its deterministic delay."""
        delay = backoff_delay(
            task.digest,
            task.attempts,
            self.policy.backoff_base,
            self.policy.backoff_cap,
        )
        report.retries += 1
        self.metrics.counter("exec.retries").inc()
        self.metrics.histogram(
            "exec.retry_backoff_s", RETRY_BACKOFF_BOUNDS
        ).observe(delay)
        self._journal(task, OUTCOME_RETRIED)
        return delay

    def _flush_metrics(self) -> None:
        """Land the exec.* counters where ``merge_metrics_dir`` finds
        them, alongside the per-point worker snapshots."""
        executor = self.executor
        if executor.metrics_dir is not None:
            snapshot = self.metrics.snapshot()
            # Campaign-level telemetry, not a per-point run: merging it
            # must not inflate the merged_runs count.
            snapshot["merged_runs"] = 0
            write_snapshot(
                snapshot,
                Path(executor.metrics_dir) / "supervisor.metrics.json",
            )

    # ------------------------------------------------------------------
    # Serial supervised execution (jobs=1, tracing, or degraded mode)
    # ------------------------------------------------------------------
    def _run_serial(
        self, tasks: list[_Task], report: CampaignReport
    ) -> None:
        """In-process execution with retries.

        No watchdog and no crash isolation are possible in-process; a
        point that would hang or kill its worker hangs or kills the
        campaign.  Quarantine still protects serial *degraded* mode:
        points blamed for pool breaks never reach it.
        """
        executor = self.executor
        runner = Runner(tasks[0].point.config)
        tracer = executor.open_tracer()
        try:
            for task in tasks:
                while True:
                    obs = executor.point_observability(tracer, task.point)
                    try:
                        if self._worker_fn is not _supervised_worker_run:
                            result = self._worker_fn(
                                task.point,
                                executor.verify,
                                executor.metrics_dir,
                            )
                        else:
                            result = execute_point(
                                runner,
                                task.point,
                                verify=executor.verify,
                                obs=obs,
                            )
                    except VerifyFailure as exc:
                        self._fail(task, OUTCOME_FAILED, exc, report)
                        break
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:
                        if task.attempts >= self.policy.retries:
                            self._fail(task, OUTCOME_FAILED, exc, report)
                            break
                        task.attempts += 1
                        time.sleep(self._backoff(task, report))
                        continue
                    executor.write_point_metrics(obs, task.point)
                    self._complete(task, result, report)
                    break
        finally:
            if tracer is not None:
                tracer.close()

    # ------------------------------------------------------------------
    # Supervised pool execution
    # ------------------------------------------------------------------
    def _spawn_pool(self, width: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=width)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down hard — hung or dead workers included."""
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except (OSError, AttributeError, ValueError):
                pass
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass

    def _run_pool(self, tasks: list[_Task], report: CampaignReport) -> None:
        policy = self.policy
        executor = self.executor
        width = min(executor.jobs, len(tasks))

        pending: deque[_Task] = deque(tasks)
        waiting: list[tuple[float, _Task]] = []  # (ready_at, task) backoffs
        inflight: dict[Any, _Task] = {}  # future → task
        deadlines: dict[Any, Optional[float]] = {}
        pool = self._spawn_pool(width)
        solo = False  # one point at a time until blame is resolved
        breaks = 0  # consecutive pool breaks (resets on any success)

        def resolve_timeout(task: _Task, now: float) -> None:
            self.metrics.counter("exec.timeouts").inc()
            report.timeouts += 1
            if task.attempts >= policy.retries:
                self._fail(
                    task,
                    OUTCOME_TIMEOUT,
                    PointTimeout(
                        task.label, policy.timeout or 0.0, task.attempts + 1
                    ),
                    report,
                )
                return
            task.attempts += 1
            waiting.append((now + self._backoff(task, report), task))

        def after_break(victims: list[_Task], now: float) -> None:
            """Quarantine or requeue every point that was in flight when
            the pool died.  A death is *recorded* only when blame is
            exact — a lone victim, which is what solo mode guarantees —
            so a killer can never drag co-scheduled innocents over the
            quarantine threshold."""
            for task in victims:
                if len(victims) == 1:
                    task.deaths += 1
                if task.deaths >= policy.quarantine_after:
                    self._fail(
                        task,
                        OUTCOME_QUARANTINED,
                        RuntimeError(
                            f"{task.label}: blamed for {task.deaths} "
                            "worker death(s)"
                        ),
                        report,
                    )
                else:
                    task.attempts += 1
                    waiting.append((now + self._backoff(task, report), task))

        try:
            while pending or inflight or waiting:
                now = time.monotonic()  # det: real-process watchdog clock, not simulated state
                if waiting:
                    still: list[tuple[float, _Task]] = []
                    for ready_at, task in waiting:
                        if ready_at <= now:
                            pending.append(task)
                        else:
                            still.append((ready_at, task))
                    waiting = still

                limit = 1 if solo else width
                broken = False
                while pending and len(inflight) < limit:
                    task = pending.popleft()
                    try:
                        future = pool.submit(
                            self._worker_fn,
                            task.point,
                            executor.verify,
                            executor.metrics_dir,
                        )
                    except BrokenExecutor:
                        pending.appendleft(task)
                        broken = True
                        break
                    inflight[future] = task
                    deadlines[future] = (
                        now + policy.timeout if policy.timeout else None
                    )

                if not broken:
                    if not inflight:
                        if waiting:
                            next_ready = min(r for r, _ in waiting)
                            time.sleep(max(0.0, next_ready - now) + 0.001)
                        continue
                    tick = self._next_tick(deadlines, waiting, now)
                    done, _ = futures_wait(
                        list(inflight),
                        timeout=tick,
                        return_when=FIRST_COMPLETED,
                    )
                    # Successes first: a sibling that finished in the
                    # same batch as a failure is cached and journaled
                    # before any fail-fast raise can unwind past it.
                    for future in sorted(
                        done, key=lambda f: f.exception() is not None
                    ):
                        task = inflight.pop(future)
                        deadlines.pop(future, None)
                        exc = future.exception()
                        if exc is None:
                            self._complete(task, future.result(), report)
                            solo = False
                            breaks = 0
                        elif isinstance(exc, BrokenExecutor):
                            # Put it back; the break is handled wholesale
                            # below so every victim is treated alike.
                            inflight[future] = task
                            deadlines[future] = None
                            broken = True
                        elif isinstance(exc, KeyboardInterrupt):
                            raise KeyboardInterrupt()
                        else:
                            self._handle_error(task, exc, waiting, report)

                now = time.monotonic()  # det: real-process watchdog clock, not simulated state
                if broken or getattr(pool, "_broken", False):
                    self.metrics.counter("exec.worker_deaths").inc()
                    report.worker_deaths += 1
                    breaks += 1
                    victims = list(inflight.values())
                    inflight.clear()
                    deadlines.clear()
                    self._kill_pool(pool)
                    after_break(victims, now)
                    if breaks >= policy.max_pool_breaks:
                        # The pool is a lost cause: finish in-process.
                        # Points already blamed for a pool break never
                        # reach serial mode — in-process there is no
                        # crash isolation, so a repeat offender would
                        # take the whole driver down with it.
                        remaining = list(pending) + [t for _, t in waiting]
                        pending.clear()
                        waiting = []
                        survivors = []
                        for task in remaining:
                            if task.deaths:
                                self._fail(
                                    task,
                                    OUTCOME_QUARANTINED,
                                    RuntimeError(
                                        f"{task.label}: blamed for "
                                        f"{task.deaths} worker death(s); "
                                        "not retried in-process"
                                    ),
                                    report,
                                )
                            else:
                                survivors.append(task)
                        if survivors:
                            self._run_serial(survivors, report)
                        return
                    solo = True
                    pool = self._spawn_pool(width)
                    continue

                overdue = [
                    future
                    for future, deadline in deadlines.items()
                    if deadline is not None and deadline <= now
                ]
                if overdue:
                    # A hung worker cannot be reclaimed individually:
                    # tear the pool down, requeue the innocents at no
                    # attempt cost, charge the overdue points a timeout.
                    victims = []
                    for future in overdue:
                        task = inflight.pop(future)
                        deadlines.pop(future, None)
                        victims.append(task)
                    innocents = list(inflight.values())
                    inflight.clear()
                    deadlines.clear()
                    self._kill_pool(pool)
                    for task in victims:
                        resolve_timeout(task, now)
                    pending.extendleft(reversed(innocents))
                    pool = self._spawn_pool(width)
        finally:
            self._kill_pool(pool)

    def _handle_error(
        self,
        task: _Task,
        exc: BaseException,
        waiting: list[tuple[float, _Task]],
        report: CampaignReport,
    ) -> None:
        """Retry (with backoff) or terminally fail one errored point."""
        retryable = not isinstance(exc, VerifyFailure)
        if retryable and task.attempts < self.policy.retries:
            task.attempts += 1
            waiting.append((time.monotonic() + self._backoff(task, report), task))  # det: real-process watchdog clock, not simulated state
        else:
            self._fail(task, OUTCOME_FAILED, exc, report)

    @staticmethod
    def _next_tick(
        deadlines: dict[Any, Optional[float]],
        waiting: list[tuple[float, _Task]],
        now: float,
    ) -> Optional[float]:
        """How long the wait() may block: until the nearest watchdog
        deadline or backoff expiry, or indefinitely if neither exists."""
        horizons = [d for d in deadlines.values() if d is not None]
        horizons += [ready_at for ready_at, _ in waiting]
        if not horizons:
            return None
        return max(0.01, min(horizons) - now)
