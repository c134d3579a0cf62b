"""Experiment configuration — Table II defaults plus run-scaling knobs.

One :class:`ExperimentConfig` captures everything a single simulated run
depends on: platform shape (clients, I/O nodes, stripes, caches, disk
spec), power-policy parameters (§V-A's tuned values) and the compiler
knobs (δ, θ, granularity).  Configs are frozen and hashable so the runner
can memoize results.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from typing import Optional

from ..disk.specs import TABLE2_DISK, DiskSpec, table2_multispeed_spec
from ..faults.plan import FaultPlan
from ..runtime.session import SessionConfig

__all__ = ["ExperimentConfig", "default_config", "bench_scale"]

KB = 1024
MB = 1024 * KB

#: Annotation -> (check, description) for the scalar config fields.
#: ``bool`` is an ``int`` subclass, so the numeric checks exclude it.
_FIELD_CHECKS = {
    "int": (lambda v: type(v) is int, "an int"),
    "float": (
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "a number",
    ),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
}

#: Smallest legal value of each bounded integer field.
_FIELD_MINIMUMS = {
    "n_clients": 1,
    "n_ionodes": 1,
    "stripe_size": 1,
    "cache_bytes": 0,
    "delta": 0,
    "theta": 1,
    "granularity": 1,
    "buffer_capacity_blocks": 1,
    "max_slack": 0,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one experiment run (defaults = Table II)."""

    # Platform (Table II).
    n_clients: int = 32
    n_ionodes: int = 8
    stripe_size: int = 64 * KB
    cache_bytes: int = 64 * MB
    disks_per_node: int = 1
    raid_level: int = 0

    # Algorithm parameters (Table II).
    delta: int = 20
    theta: int = 4
    granularity: int = 1

    # Policy parameters (§V-A, retuned for this substrate's idle
    # distribution following the paper's own procedure: pick x for good
    # savings under a bounded performance penalty).
    simple_timeout: float = 38.0
    staggered_step: float = 4.5         # dwell per RPM step (substrate-scaled)
    prediction_margin: float = 1.0
    history_utilization_bound: float = 0.8

    # Online-policy parameters (``repro.power.online``).
    forecast_epoch: float = 30.0        # demand-forecast bucket (seconds)
    credit_slack: float = 0.05          # performance-slack accrual fraction
    hybrid_divergence: float = 2.0      # hint-trust spread bound (seconds)

    # Runtime scheduler.
    buffer_capacity_blocks: int = 2048
    scheduler_min_lead: int = 2
    max_slack: int = 200
    #: Straggler-aware client-side window reordering (scheme runs only;
    #: see :mod:`repro.runtime.reorder`).
    reorder: bool = False

    # Workload scaling.
    workload_scale: float = 1.0

    # Simulation engine.  The heap simulator is the only one, so "heap"
    # is the only legal value; the field stays because it is part of
    # ``to_key()``, and dropping it would move every cache digest.
    kernel: str = "heap"

    # Fault injection (``None`` = the perfect stack).  Part of the config
    # so fault plans are enumerable in experiment grids and participate
    # in every cache key — a faulted run can never collide with a clean
    # one in the ResultCache or the runner's memo tables.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        # One type check per field: a wrongly typed override (a served
        # JSON string, list or bool) is refused here, not deep in a run.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "kernel":
                if value != "heap":
                    raise ValueError(
                        f"unknown simulation kernel {value!r}; "
                        "the only kernel is 'heap'"
                    )
            elif f.name == "fault_plan":
                if value is not None and not isinstance(value, FaultPlan):
                    raise ValueError(
                        "config field 'fault_plan' must be a FaultPlan "
                        f"or None, got {value!r}"
                    )
            else:
                check, expected = _FIELD_CHECKS[f.type]
                if not check(value):
                    raise ValueError(
                        f"config field {f.name!r} must be {expected}, "
                        f"got {value!r}"
                    )
        # Ranges the workloads, the compiler and the storage stack assume:
        # a non-positive scale would be clamped to a minimum-size workload
        # under a digest of its own, and every value below its minimum
        # fails deep inside a run (the IR, the stripe map, the schedulers
        # or the prefetch buffer).
        if not (math.isfinite(self.workload_scale)
                and self.workload_scale > 0):
            raise ValueError(
                "config field 'workload_scale' must be finite and > 0, "
                f"got {self.workload_scale!r}"
            )
        for name, minimum in _FIELD_MINIMUMS.items():
            if getattr(self, name) < minimum:
                raise ValueError(
                    f"config field {name!r} must be >= {minimum}, "
                    f"got {getattr(self, name)!r}"
                )

    def disk_spec(self, multispeed: bool) -> DiskSpec:
        """Table II single-speed or DRPM disk."""
        return table2_multispeed_spec() if multispeed else TABLE2_DISK

    def session_config(self) -> SessionConfig:
        return SessionConfig(
            n_ionodes=self.n_ionodes,
            stripe_size=self.stripe_size,
            cache_bytes=self.cache_bytes,
            disks_per_node=self.disks_per_node,
            raid_level=self.raid_level,
            buffer_capacity_blocks=self.buffer_capacity_blocks,
            scheduler_min_lead=self.scheduler_min_lead,
            reorder=self.reorder,
        )

    def scaled(self, **changes) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def to_key(self) -> tuple[tuple[str, object], ...]:
        """Canonical, order-stable ``((field, value), ...)`` key.

        This is the *only* sanctioned way to use a config as a memoization
        or cache key: it enumerates every dataclass field by name, so it
        cannot silently conflate two configs (dataclass ``hash``/``eq``
        would break if a future field were added with ``compare=False``)
        and it keys equally across processes, unlike ``hash()`` which is
        salted per-interpreter for any str-containing value.

        Values that know how to canonicalize themselves (``to_key()``,
        e.g. :class:`~repro.faults.plan.FaultPlan`) contribute their own
        nested primitive tuples so the key stays JSON-encodable.
        """
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            own_key = getattr(value, "to_key", None)
            if callable(own_key):
                value = own_key()
            out.append((f.name, value))
        return tuple(out)


def bench_scale() -> float:
    """Workload scale used by tests/benchmarks.

    Controlled by the ``REPRO_SCALE`` environment variable; the default
    0.25 keeps a full figure sweep in minutes while preserving every
    qualitative result.  Set ``REPRO_SCALE=1.0`` to reproduce the paper's
    full run magnitudes.
    """
    return float(os.environ.get("REPRO_SCALE", "0.25"))


def default_config(scale: float | None = None) -> ExperimentConfig:
    """Table II configuration at the chosen workload scale."""
    return ExperimentConfig(
        workload_scale=bench_scale() if scale is None else scale
    )
