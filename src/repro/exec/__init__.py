"""Parallel experiment execution: process-pool fan-out, content-addressed
result caching, figure run grids and the ``repro bench`` gate record.

Layout:

* :mod:`~repro.exec.serialize` — exact JSON round-tripping of
  :class:`~repro.experiments.runner.RunResult` and the cache/output
  :data:`~repro.exec.serialize.SCHEMA_VERSION`;
* :mod:`~repro.exec.cache` — :class:`ResultCache`, a content-addressed
  on-disk store keyed by the canonical config digest;
* :mod:`~repro.exec.executor` — :class:`RunPoint`, one grid cell, and
  :func:`execute_point`, the one point body (verify scheme points,
  simulate, return the result with its metrics snapshot);
* :mod:`~repro.exec.grid` — which run points each paper figure reads,
  found by rendering the figure once against a recording runner;
* :mod:`~repro.exec.journal` — :class:`DurableJournal`, the fsync'd
  truncated-tail-tolerant JSONL substrate shared by the campaign journal
  and the scheduling server's admission WAL (``repro serve --recover``);
* :mod:`~repro.exec.supervise` — :class:`CampaignSupervisor`, the one
  campaign object: it holds a grid's configuration (jobs, cache,
  observability outputs, retry policy, journal), resolves points
  against the cache, runs the misses (in-process or on a worker pool
  with one shared Runner per worker), stores fresh results and merges
  their metrics snapshots onto its report, with
  watchdog timeouts, seeded-backoff retries, worker-crash
  recovery/quarantine, the resumable JSONL campaign journal and
  partial-failure reports;
* :mod:`~repro.exec.bench` — the ``BENCH_*.json`` record CI gates on:
  the paired trace-overhead measurement.
"""

from .bench import QUICK_FIGURES, run_bench, write_bench_record
from .cache import CacheStats, ResultCache, point_digest
from .executor import RunPoint, VerifyFailure, execute_point
from .grid import (
    GRID_FIGURES,
    all_figure_points,
    figure_points,
)
from .journal import (
    WAL_SCHEMA_VERSION,
    DurableJournal,
    load_wal,
    point_from_doc,
    point_to_doc,
    wal_admit,
    wal_header,
    wal_outcome,
)
from .serialize import (
    JOURNAL_SCHEMA_VERSION,
    SCHEMA_VERSION,
    run_result_from_dict,
    run_result_to_dict,
)
from .supervise import (
    BOUNDARY_ERRORS,
    CampaignFailed,
    CampaignJournal,
    CampaignReport,
    CampaignSupervisor,
    PointFailure,
    PointTimeout,
    WorkerFailure,
    backoff_delay,
    load_journal,
)

__all__ = [
    "SCHEMA_VERSION",
    "JOURNAL_SCHEMA_VERSION",
    "WAL_SCHEMA_VERSION",
    "DurableJournal",
    "point_to_doc",
    "point_from_doc",
    "wal_header",
    "wal_admit",
    "wal_outcome",
    "load_wal",
    "run_result_to_dict",
    "run_result_from_dict",
    "point_digest",
    "CacheStats",
    "ResultCache",
    "RunPoint",
    "VerifyFailure",
    "execute_point",
    "figure_points",
    "all_figure_points",
    "GRID_FIGURES",
    "QUICK_FIGURES",
    "run_bench",
    "write_bench_record",
    "BOUNDARY_ERRORS",
    "CampaignFailed",
    "CampaignJournal",
    "CampaignReport",
    "CampaignSupervisor",
    "PointFailure",
    "PointTimeout",
    "WorkerFailure",
    "backoff_delay",
    "load_journal",
]
