"""Campaigns: the one object that resolves a grid of points.

A *campaign* is one experiment grid run with caching, retries and a
journal.  :class:`CampaignSupervisor` owns its whole configuration —
worker count, the optional content-addressed
:class:`~repro.exec.cache.ResultCache`, observability outputs, the
retry/watchdog policy and the journal — and resolves a grid in three
steps:

1. dedupe the points and look every one up in the cache (a hit costs one
   JSON read, no simulation, no worker dispatch);
2. run the misses through :func:`~repro.exec.executor.execute_point`
   (verify scheme points, simulate, return the result with its metrics
   snapshot) — in-process for ``jobs <= 1`` (or a traced campaign),
   otherwise on a ``ProcessPoolExecutor`` whose workers each keep one
   process-global :class:`~repro.experiments.runner.Runner`, so traces
   and compilations are built once per *worker*, not once per point;
3. store each fresh result the moment its point completes (atomic,
   content-addressed, so concurrent writers are safe); a campaign that
   collects metrics merges the returned snapshots onto its report.

Around that sits the machinery a multi-hour figure campaign needs to
survive partial failure:

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
  point that breaks its pool :data:`QUARANTINE_AFTER` times is
  quarantined without taking innocent siblings with it.  If the pool
  keeps breaking (:data:`MAX_POOL_BREAKS` consecutive times) the
  supervisor degrades to serial in-process execution for the remainder;
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
from ..obs.metrics import MetricsRegistry, merge_snapshots
from .cache import ResultCache, point_digest
from .executor import RunPoint, VerifyFailure, execute_point
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

# Supervision constants, read at call time so tests can monkeypatch them.
#: First-retry backoff (seconds); doubles per attempt up to the cap.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
#: Quarantine a point after this many pool breaks blamed on it.
QUARANTINE_AFTER = 2
#: Consecutive pool breaks before degrading to serial execution.
MAX_POOL_BREAKS = 3

#: What a point body returns: the result and its metrics snapshot (or
#: ``None`` when the campaign collects no metrics).
PointOutcome = tuple[RunResult, Optional[dict[str, Any]]]


class WorkerFailure(RuntimeError):
    """A worker-side exception, flattened to strings for the pool.

    Arbitrary exceptions raised inside a point (simulation bugs, bad
    configs) may not pickle; arriving as an opaque ``PicklingError``
    would defeat the whole report.  The pool's entry point
    (:func:`_pool_run`) therefore wraps everything except
    :class:`VerifyFailure` into this — label, original type name, message
    and formatted traceback, all plain strings.
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
# The serial pass calls the same point body on its own Runner.
# ----------------------------------------------------------------------
_WORKER_RUNNER: Optional[Runner] = None


def _pool_run(
    point_fn: Callable[..., PointOutcome], point: RunPoint, metrics: bool
) -> PointOutcome:
    """The pool's entry point: ``point_fn`` on this worker's Runner, with
    picklable failure.

    :class:`VerifyFailure` already crosses the pool cleanly and callers
    key on it (non-retryable); anything else is flattened into a
    :class:`WorkerFailure` carrying the original traceback text.
    """
    import traceback

    global _WORKER_RUNNER
    try:
        if _WORKER_RUNNER is None:
            _WORKER_RUNNER = Runner(point.config)
        return point_fn(_WORKER_RUNNER, point, metrics)
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
# Deterministic backoff
# ----------------------------------------------------------------------
def backoff_delay(
    digest: str,
    attempt: int,
    base: float = BACKOFF_BASE,
    cap: float = BACKOFF_CAP,
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
    #: When the campaign collects metrics: each simulated point's own
    #: snapshot by digest, and ``metrics``, those snapshots merged in
    #: digest order plus the supervisor's ``exec.*`` family.
    snapshots: dict[str, dict[str, Any]] = field(default_factory=dict)
    metrics: Optional[dict[str, Any]] = None

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
    """One campaign: cache resolution, supervised execution, result
    storage, journal and observability outputs for a grid of points.

    Every point goes through :func:`execute_point`, results are stored
    under their content digests, and a fault-free campaign is
    bit-identical at any ``jobs``, its merged metrics snapshot included.
    Each result is stored the moment its point completes.  That
    per-point checkpointing is what makes SIGINT/SIGKILL cheap: an
    interrupted campaign has lost only its in-flight points.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        metrics: bool = False,
        trace_path: Optional[Union[str, Path]] = None,
        trace_detail: bool = False,
        timeout: Optional[float] = None,
        retries: int = 1,
        keep_going: bool = False,
        journal: Optional[CampaignJournal] = None,
        worker_fn: Optional[Callable[..., PointOutcome]] = None,
    ):
        """``jobs`` is the worker count misses run on (1 = in-process).
        ``metrics`` collects a metrics snapshot from every simulated
        point; each comes back with its result and the report carries
        them merged (:attr:`CampaignReport.metrics`).  ``trace_path``
        streams span events for every point into one JSONL file — traced
        misses run serially, because interleaving concurrent runs into
        one ordered stream would be nondeterministic.  ``trace_detail``
        adds per-operation records (MPI-IO calls, disk requests, network
        transfers, I/O-node ops) to the lifecycle trace.  Either output
        also disables cache *reads* (a hit would produce no telemetry);
        fresh results are still written back.

        ``timeout`` is the watchdog's seconds per attempt (None disables
        it), ``retries`` the extra attempts per point, and
        ``keep_going`` collects failures instead of raising the first.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1: {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0: {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0: {retries}")
        self.jobs = jobs
        self.cache = cache
        self.collects_metrics = metrics
        self.trace_path = Path(trace_path) if trace_path is not None else None
        self.trace_detail = trace_detail
        self.timeout = timeout
        self.retries = retries
        self.keep_going = keep_going
        self.journal = journal
        self.metrics = MetricsRegistry()
        # Pre-register so a merged snapshot always carries the exec.*
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
        # The point body; a test seam (hung/killer stub workers).  It must
        # be a module-level callable with execute_point's signature, as
        # the pool pickles it by qualified name.
        self._point_fn = worker_fn or execute_point

    @property
    def observed(self) -> bool:
        """Whether this campaign emits telemetry for the points it runs."""
        return self.collects_metrics or self.trace_path is not None

    # ------------------------------------------------------------------
    def run_points(self, points: Iterable[RunPoint]) -> CampaignReport:
        """Resolve every point under supervision; returns the report.

        Fail-fast (default): the first terminal failure raises, after
        completed results have been journaled and cached.  With
        ``keep_going`` all failures are collected on the report instead.
        """
        return self._resolve(points, runner=None)

    def warm_runner(
        self, runner: Runner, points: Iterable[RunPoint]
    ) -> CampaignReport:
        """:meth:`run_points`, then seed the results into ``runner``'s
        memo table, so figure functions find every grid cell materialized
        and never fall back to in-process simulation.  A serial pass runs
        its misses on ``runner`` itself, sharing its traces and
        compilations."""
        report = self._resolve(points, runner=runner)
        for point, result in report.results.items():
            runner.seed_result(
                point.workload, point.policy, point.scheme, point.config,
                result,
            )
        return report

    def _resolve(
        self, points: Iterable[RunPoint], runner: Optional[Runner]
    ) -> CampaignReport:
        report = CampaignReport()
        tasks: list[_Task] = []
        seen: set[RunPoint] = set()
        for point in points:
            if point in seen:
                continue
            seen.add(point)
            cached = None
            if self.cache is not None and not self.observed:
                cached = self.cache.lookup(
                    point.config, point.workload, point.policy, point.scheme
                )
            task = _Task(point)
            if cached is None:
                tasks.append(task)
                continue
            report.results[point] = cached
            report.outcomes[task.digest] = OUTCOME_CACHED
            self._journal(task, OUTCOME_CACHED)

        try:
            if tasks:
                serial = (
                    self.jobs <= 1
                    or len(tasks) == 1
                    or self.trace_path is not None
                )
                if serial:
                    self._run_serial(tasks, report, runner)
                else:
                    self._run_pool(tasks, report)
        except KeyboardInterrupt:
            report.interrupted = True
            raise
        if self.collects_metrics:
            # Digest order, not the order the workers finished in.
            merged = merge_snapshots(
                report.snapshots[d] for d in sorted(report.snapshots)
            )
            # The exec.* family is campaign-level, not a run: it joins the
            # merge without counting towards merged_runs.  No point
            # snapshot carries an exec.* name.
            campaign = self.metrics.snapshot()
            for kind in ("counters", "gauges", "histograms"):
                merged[kind].update(campaign[kind])
            report.metrics = merged
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
        self, task: _Task, outcome: PointOutcome, report: CampaignReport
    ) -> None:
        result, snapshot = outcome
        report.results[task.point] = result
        report.outcomes[task.digest] = OUTCOME_OK
        if snapshot is not None:
            report.snapshots[task.digest] = snapshot
        # Checkpoint now, not at campaign end: this is what an
        # interrupted campaign resumes from.
        if self.cache is not None:
            point = task.point
            self.cache.store(
                point.config, point.workload, point.policy, point.scheme,
                result,
            )
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
        if not self.keep_going:
            raise error

    def _backoff(self, task: _Task, report: CampaignReport) -> float:
        """Count one retry; returns its deterministic delay."""
        delay = backoff_delay(
            task.digest, task.attempts, BACKOFF_BASE, BACKOFF_CAP
        )
        report.retries += 1
        self.metrics.counter("exec.retries").inc()
        self.metrics.histogram(
            "exec.retry_backoff_s", RETRY_BACKOFF_BOUNDS
        ).observe(delay)
        self._journal(task, OUTCOME_RETRIED)
        return delay

    # ------------------------------------------------------------------
    # Serial supervised execution (jobs=1, tracing, or degraded mode)
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        tasks: list[_Task],
        report: CampaignReport,
        runner: Optional[Runner] = None,
    ) -> None:
        """In-process execution with retries, on ``runner`` (default: a
        fresh one).

        No watchdog and no crash isolation are possible in-process; a
        point that would hang or kill its worker hangs or kills the
        campaign.  Quarantine still protects serial *degraded* mode:
        points blamed for pool breaks never reach it.
        """
        if runner is None:
            runner = Runner(tasks[0].point.config)
        tracer = None
        if self.trace_path is not None:
            from ..obs.tracer import JsonlTracer

            tracer = JsonlTracer(self.trace_path, detail=self.trace_detail)
        try:
            for task in tasks:
                while True:
                    try:
                        outcome = self._point_fn(
                            runner, task.point, self.collects_metrics, tracer
                        )
                    except VerifyFailure as exc:
                        self._fail(task, OUTCOME_FAILED, exc, report)
                        break
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:
                        if task.attempts >= self.retries:
                            self._fail(task, OUTCOME_FAILED, exc, report)
                            break
                        task.attempts += 1
                        time.sleep(self._backoff(task, report))
                        continue
                    self._complete(task, outcome, report)
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
        width = min(self.jobs, len(tasks))

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
            if task.attempts >= self.retries:
                self._fail(
                    task,
                    OUTCOME_TIMEOUT,
                    PointTimeout(
                        task.label, self.timeout or 0.0, task.attempts + 1
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
                if task.deaths >= QUARANTINE_AFTER:
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
                            _pool_run,
                            self._point_fn,
                            task.point,
                            self.collects_metrics,
                        )
                    except BrokenExecutor:
                        pending.appendleft(task)
                        broken = True
                        break
                    inflight[future] = task
                    deadlines[future] = (
                        now + self.timeout if self.timeout else None
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
                    if breaks >= MAX_POOL_BREAKS:
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
        if retryable and task.attempts < self.retries:
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
