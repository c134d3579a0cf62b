"""Counters, gauges and fixed-bucket histograms for run telemetry.

A :class:`MetricsRegistry` is a flat, name-addressed collection of three
instrument kinds:

* **counter** — monotonically increasing integer (requests, evictions);
* **gauge** — last-written float (peak buffer occupancy, joules per state);
* **histogram** — fixed upper-bound buckets plus a catch-all overflow
  bucket, with observation count and sum (queue delays, idle periods).

Snapshots are plain JSON-able dicts so they can be written per worker
process and merged later.  Merging is deterministic and order-independent:
counters and histogram buckets add, histogram totals are summed exactly
(``math.fsum``, so float rounding cannot depend on order), gauges take
the maximum (peak semantics — the only gauge aggregation that is
order-independent without extra bookkeeping).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from pathlib import Path
from typing import Any, Iterable, Sequence, Union

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "write_snapshot",
    "read_snapshot",
]

#: Version stamp of the snapshot layout.
METRICS_SCHEMA_VERSION = 1


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {n}")
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A last-written float."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def max_update(self, value: float) -> None:
        """Keep the maximum of the current and the new value."""
        if value > self.value:
            self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Fixed-bucket histogram: ``len(bounds) + 1`` buckets.

    ``counts[i]`` counts observations ``v <= bounds[i]``; the final bucket
    is the open overflow.  Bounds are part of the identity — merging two
    histograms with different bounds is an error, not a silent re-bin.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, bounds: Sequence[float]):
        if not bounds:
            raise ValueError(f"histogram {name!r}: empty bounds")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r}: bounds not ascending")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative_fractions(self) -> list[float]:
        """Fraction of observations ≤ each bound (CDF over the buckets)."""
        if not self.count:
            return [0.0] * len(self.bounds)
        out, running = [], 0
        for c in self.counts[:-1]:
            running += c
            out.append(running / self.count)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.4g})"


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name-addressed instrument store with get-or-create semantics."""

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}

    # ------------------------------------------------------------------
    def _get(self, name: str, kind: type, *args: Any) -> Instrument:
        inst = self._instruments.get(name)
        if inst is None:
            inst = kind(name, *args)
            self._instruments[name] = inst
        elif not isinstance(inst, kind):
            raise TypeError(
                f"metric {name!r} is a {type(inst).__name__}, "
                f"not a {kind.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        hist = self._get(name, Histogram, bounds)
        assert isinstance(hist, Histogram)
        if hist.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} re-registered with different bounds"
            )
        return hist

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The registry's state as a JSON-able, mergeable dict."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, Any]] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Counter):
                counters[name] = inst.value
            elif isinstance(inst, Gauge):
                gauges[name] = inst.value
            else:
                histograms[name] = {
                    "bounds": list(inst.bounds),
                    "counts": list(inst.counts),
                    "total": inst.total,
                    "count": inst.count,
                }
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


def _exact_sum(values: list[float]) -> float:
    """The correctly rounded sum of ``values``, whatever their order.

    ``math.fsum`` refuses ``inf + -inf`` and an intermediate beyond the
    float range; IEEE addition in sorted order is order-independent too.
    """
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return sum(sorted(values))


def _signed_max(value: float) -> tuple[float, float]:
    """Gauge merge key: the max, with ``0.0`` above ``-0.0``."""
    return value, math.copysign(1.0, value)


def merge_snapshots(snapshots: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Merge per-run snapshots into one (deterministic, order-independent).

    Counters and histogram buckets add, histogram totals are summed
    exactly (``math.fsum``), and gauges take the max.  The merge is
    independent of input order, so ``repro report a.json b.json`` equals
    ``repro report b.json a.json``.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict[str, Any]] = {}
    totals: dict[str, list[float]] = {}
    merged_runs = 0
    for snap in snapshots:
        if snap.get("schema") != METRICS_SCHEMA_VERSION:
            raise ValueError(
                f"metrics schema {snap.get('schema')!r} != "
                f"current {METRICS_SCHEMA_VERSION}"
            )
        merged_runs += snap.get("merged_runs", 1)
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = max(
                gauges.get(name, -math.inf), value, key=_signed_max
            )
        for name, h in snap.get("histograms", {}).items():
            have = histograms.get(name)
            if have is None:
                histograms[name] = {
                    "bounds": list(h["bounds"]),
                    "counts": list(h["counts"]),
                    "count": h["count"],
                }
                totals[name] = [h["total"]]
            else:
                if have["bounds"] != list(h["bounds"]):
                    raise ValueError(
                        f"histogram {name!r}: bucket bounds differ across "
                        "snapshots"
                    )
                have["counts"] = [
                    a + b for a, b in zip(have["counts"], h["counts"])
                ]
                totals[name].append(h["total"])
                have["count"] += h["count"]
    for name, hist in histograms.items():
        hist["total"] = _exact_sum(totals[name])
    return {
        "schema": METRICS_SCHEMA_VERSION,
        "merged_runs": merged_runs,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def write_snapshot(snapshot: dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a snapshot as canonical JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(snapshot, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    return path


def read_snapshot(path: Union[str, Path]) -> dict[str, Any]:
    """Load a snapshot written by :func:`write_snapshot`."""
    with Path(path).open("r", encoding="utf-8") as fh:
        snap = json.load(fh)
    if snap.get("schema") != METRICS_SCHEMA_VERSION:
        raise ValueError(
            f"metrics schema {snap.get('schema')!r} != "
            f"current {METRICS_SCHEMA_VERSION}"
        )
    return snap
