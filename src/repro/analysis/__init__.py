"""Static schedule verification and IR lint (``repro verify`` / ``repro
lint``).

The paper's correctness argument rests on two invariants the rest of this
codebase otherwise only *assumes*: every relocated access stays inside its
access slack, and no consumer is prefetched before its cross-process
producer has written.  This package checks both — plus runtime
realizability (wait-for deadlocks, buffer capacity) and IR hygiene —
statically, from a :class:`~repro.ir.profiling.AccessTrace` and a
:class:`~repro.core.table.ScheduleBook`, without ever running the
simulator.

Layout:

* :mod:`~repro.analysis.diagnostics` — stable-coded :class:`Diagnostic`
  findings, severities, source anchors, text/JSON :class:`Report`;
* :mod:`~repro.analysis.schedule_check` — slack windows, horizons,
  duplicates/unscheduled accesses, producer agreement (``SCHED*``);
* :mod:`~repro.analysis.races` — producer-wait graph, deadlock cycles,
  unbounded waits under ``min_lead``/``batch_slots`` (``RACE*``);
* :mod:`~repro.analysis.capacity` — planned buffer occupancy (``CAP*``)
  and IR lint (``LINT*``);
* :mod:`~repro.analysis.verify` — the orchestrating entry points and the
  :class:`RuntimeModel` the checks are evaluated against;
* :mod:`~repro.analysis.energy` — abstract-interpretation energy bounds:
  certified [lower, upper] envelopes per configuration, power-state
  residency intervals, DES cross-validation (``ENERGY*``/``OCC*``/
  ``PHASE*``);
* :mod:`~repro.analysis.determinism` — AST lint for wall-clock reads,
  unseeded randomness, and unsorted directory listings (``LINT1xx``).
"""

from .capacity import CapacityProfile, analyze_capacity, lint_trace
from .determinism import lint_determinism, lint_source
from .diagnostics import CODES, Diagnostic, Report, Severity, SourceAnchor
from .races import WaitEdge, build_wait_graph, detect_races
from .schedule_check import check_book
from .verify import (
    RuntimeModel,
    capacity_profile,
    lint_program,
    verify_schedule,
)

# Imported last: energy reaches into core/ir/storage layers that
# themselves import repro.analysis.diagnostics at module load.
from .energy import (  # noqa: E402
    CORPUS_POLICIES,
    POLICY_CLASSES,
    DiskResidency,
    EnergyAnalysis,
    EnergyEnvelope,
    Interval,
    analyze_energy,
    check_envelope,
    widen_envelope,
)

__all__ = [
    "CODES",
    "Severity",
    "SourceAnchor",
    "Diagnostic",
    "Report",
    "check_book",
    "WaitEdge",
    "build_wait_graph",
    "detect_races",
    "CapacityProfile",
    "analyze_capacity",
    "capacity_profile",
    "lint_trace",
    "RuntimeModel",
    "verify_schedule",
    "lint_program",
    "lint_determinism",
    "lint_source",
    "Interval",
    "EnergyEnvelope",
    "DiskResidency",
    "EnergyAnalysis",
    "analyze_energy",
    "check_envelope",
    "widen_envelope",
    "POLICY_CLASSES",
    "CORPUS_POLICIES",
]
