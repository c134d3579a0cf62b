"""Verifier entry points: one call runs every static checker.

:func:`verify_schedule` is what the CLI (``repro verify``) and the
campaign's gate (:meth:`~repro.experiments.runner.Runner.verification`)
invoke; it aggregates the schedule checks, the race/deadlock detection
and the capacity analysis into one
:class:`~repro.analysis.diagnostics.Report`.  The runtime
semantics the checks model (``min_lead``, ``batch_slots``, buffer
capacity) travel in a :class:`RuntimeModel`, defaulting to the session
defaults so a bare ``verify_schedule(trace, book)`` checks what a bare
``Session`` would run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.table import ScheduleBook
from ..ir.profiling import AccessTrace
from .capacity import CapacityProfile, analyze_capacity, lint_trace
from .diagnostics import Report
from .races import detect_races
from .schedule_check import check_book

__all__ = [
    "RuntimeModel",
    "verify_schedule",
    "capacity_profile",
    "lint_program",
]


@dataclass(frozen=True)
class RuntimeModel:
    """The runtime semantics the static checks are evaluated against.

    Defaults mirror :class:`~repro.runtime.session.SessionConfig`; build
    from a real config with :meth:`from_session_config` so the verifier
    and the simulator never disagree about the knobs.
    """

    min_lead: int = 2
    batch_slots: int = 8
    buffer_capacity_blocks: int = 512

    @classmethod
    def from_session_config(cls, config) -> "RuntimeModel":
        """From a :class:`~repro.runtime.session.SessionConfig`."""
        return cls(
            min_lead=config.scheduler_min_lead,
            batch_slots=config.scheduler_batch_slots,
            buffer_capacity_blocks=config.buffer_capacity_blocks,
        )


def verify_schedule(
    trace: AccessTrace,
    book: ScheduleBook,
    runtime: RuntimeModel = RuntimeModel(),
    include_lint: bool = True,
) -> Report:
    """Statically verify ``book`` against ``trace`` — no simulation.

    ``trace`` is the one the book was compiled from, at the compiler's
    slot granularity; producers are checked against its last-writer
    table, so verifying never re-traces the program.  Error-severity
    diagnostics mean the schedule violates a correctness invariant;
    warnings and notes are realizability and style findings.
    """
    report = Report()
    report.extend(check_book(trace, book))
    report.extend(detect_races(trace, book, runtime.min_lead,
                               runtime.batch_slots))
    _profile, cap_diags = analyze_capacity(
        trace, book, runtime.buffer_capacity_blocks,
        runtime.min_lead, runtime.batch_slots,
    )
    report.extend(cap_diags)
    if include_lint:
        report.extend(lint_trace(trace))
    return report


def capacity_profile(
    trace: AccessTrace,
    book: ScheduleBook,
    runtime: RuntimeModel = RuntimeModel(),
) -> CapacityProfile:
    """The planned buffer-occupancy profile of a schedule (no report)."""
    profile, _diags = analyze_capacity(
        trace, book, runtime.buffer_capacity_blocks,
        runtime.min_lead, runtime.batch_slots,
    )
    return profile


def lint_program(trace: AccessTrace) -> Report:
    """IR lint alone (``repro lint``): no schedule required."""
    report = Report()
    report.extend(lint_trace(trace))
    return report
