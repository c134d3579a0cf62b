"""Statistics and host facts shared by ``run.py`` and ``compare.py``."""

from __future__ import annotations

import math
import os
import platform
import statistics
from typing import Optional, Sequence

#: Percentiles a latency tail may be reported at, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sample
    (the definition ``repro.serve.loadgen`` uses)."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct * len(sorted_values) / 100.0))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct``."""
    return n - min(n, max(1, math.ceil(pct * n / 100.0)))


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least :data:`MIN_BEYOND`
    samples beyond it, or ``None`` when ``n`` supports none."""
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def latency_summary(seconds: Sequence[float]) -> dict:
    """Median and supported tail (in ms) of a latency sample.

    A sample too small for any ladder percentile (smoke runs) reports
    its median as the tail and says so in ``tail_supported``.
    """
    values = sorted(s * 1e3 for s in seconds)
    if not values:
        return {"n": 0, "p50_ms": None, "tail_ms": None, "tail_pct": None,
                "tail_supported": False}
    pct = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50_ms": percentile(values, 50.0),
        "tail_ms": percentile(values, pct or 50.0),
        "tail_pct": pct or 50.0,
        "tail_supported": pct is not None,
    }


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when flat)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def host_facts(seed: int) -> dict:
    """What a result file records about the machine that produced it."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg": load,
        "seed": seed,
    }
