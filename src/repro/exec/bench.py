"""``repro bench`` — the trace-overhead measurement CI gates on.

The record holds one measurement: the paired traced-vs-untraced
slowdown (``trace_overhead``) that CI bounds at 5%, with the fastest
pass's traced seconds (``traced_seconds``) beside it.

Per-point throughput is ``bench/``'s ``sim.ns_per_event``, envelope
widths are ``repro analyze --metrics``'s ``*.energy.relative_width``
gauges, and grid wall time, profiles and serving throughput are
measured from fresh processes by the repository benchmark
(``bench/run.py``), not here.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from ..experiments.config import ExperimentConfig, default_config
from ..experiments.runner import Runner
from .executor import RunPoint
from .grid import all_figure_points
from .serialize import SCHEMA_VERSION

__all__ = ["QUICK_FIGURES", "run_bench", "write_bench_record"]

#: Small but representative subset for CI smoke runs: baselines plus a
#: scheme compile + full policy grid for one figure.
QUICK_FIGURES = ("table3", "fig12a", "fig12b", "fig12c")


def _measure_trace_overhead(
    points: Sequence[RunPoint], trace_path: Path, repeats: int
) -> tuple[float, float]:
    """Paired per-point measurement of lifecycle-tracing overhead.

    Returns ``(traced_seconds, overhead)``.  Machine throughput on
    shared runners drifts by 10-25% on a timescale of seconds — far more
    than the few percent being measured — so whole-pass comparisons are
    hopeless.  Instead each point is run back to back untraced and
    traced (order alternating by index so drift inside a pair cancels on
    average), both through :meth:`Runner.run` with an ``obs`` so neither
    side is served from the memo, on a runner whose compile/trace memos were
    warmed first.  The ratio of the summed halves is one estimate; the
    median over ``repeats`` estimates discards pairs that a drift edge
    split.  Verification is excluded from both halves (it is identical
    work either way), which only makes the reported ratio stricter.
    """
    from ..obs.base import Observability
    from ..obs.tracer import JsonlTracer

    runner = Runner(points[0].config)
    null_obs = Observability()
    for point in points:  # warm compile/trace memos, untimed
        runner.run(
            point.workload, point.policy, point.scheme, point.config,
            obs=null_obs,
        )
    ratios = []
    traced_seconds = []
    for _ in range(repeats):
        tracer = JsonlTracer(trace_path)  # rewrite: keep the last pass
        traced_obs = Observability(tracer=tracer)
        untraced = traced = 0.0
        try:
            for index, point in enumerate(points):
                tracer.set_context(point=point.label())
                order = ((null_obs, False), (traced_obs, True))
                if index % 2:
                    order = order[::-1]
                for obs, is_traced in order:
                    start = time.perf_counter()  # det: wall-clock duration is the benchmark's measurement
                    runner.run(
                        point.workload, point.policy, point.scheme,
                        point.config, obs=obs,
                    )
                    elapsed = time.perf_counter() - start  # det: wall-clock duration is the benchmark's measurement
                    if is_traced:
                        traced += elapsed
                    else:
                        untraced += elapsed
        finally:
            tracer.close()
        if untraced > 0:
            ratios.append(traced / untraced - 1.0)
        traced_seconds.append(traced)
    ratios.sort()
    mid = len(ratios) // 2
    median = (
        ratios[mid]
        if len(ratios) % 2
        else (ratios[mid - 1] + ratios[mid]) / 2
    )
    return min(traced_seconds), median


def run_bench(
    config: Optional[ExperimentConfig],
    figures: Sequence[str],
    trace_path: Path,
    repeats: int = 1,
) -> dict:
    """Measure the trace overhead over a grid; returns the record (not yet
    written).

    ``trace_overhead`` is traced ÷ untraced − 1, measured pairwise per
    point (see :func:`_measure_trace_overhead`), and ``traced_seconds``
    is the fastest traced pass; the JSONL trace of the last pass is
    left at ``trace_path``.  ``repeats`` repeats the measurement and
    keeps the median; the CI gate uses ``repeats >= 3`` to ride out
    noisy shared runners.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1: {repeats}")
    cfg = config or default_config()
    points = all_figure_points(cfg, names=figures)

    record: dict = {
        "kind": "repro-bench",
        "schema": SCHEMA_VERSION,
        # UTC with an explicit Z, so record names sort by instant.
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),  # det: record timestamp, not simulated state
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "workload_scale": cfg.workload_scale,
        "figures": list(figures),
        "points": len(points),
        "repeats": repeats,
    }
    traced_seconds, overhead = _measure_trace_overhead(
        points, Path(trace_path), repeats
    )
    record["traced_seconds"] = round(traced_seconds, 4)
    record["trace_overhead"] = round(overhead, 4)
    record["trace_path"] = str(trace_path)
    return record


def write_bench_record(record: dict, out_dir: Path) -> Path:
    """Write the record as ``BENCH_<timestamp>.json``; returns the path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = record["created"].replace("-", "").replace(":", "")
    path = out_dir / f"BENCH_{stamp}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path
