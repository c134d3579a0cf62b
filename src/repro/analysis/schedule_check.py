"""Static schedule verifier (codes ``SCHED001``–``SCHED008``).

Checks a compiled :class:`~repro.core.table.ScheduleBook` against its
program trace *without running the simulator*: every relocated access must
stay inside its slack window and the slot horizon, every traced read must
be scheduled exactly once under its own process, and each access's
recorded producer must agree with the trace's last-writer table — the
property the runtime's producer-wait silently relies on (a stale producer
makes the scheduler thread wait on the wrong process/slot, or not wait at
all).

The writer table is :meth:`~repro.ir.profiling.AccessTrace.last_writer_table`
of the trace in hand, at whatever granularity it was taken, so verifying
never re-traces the program.  For affine programs the polyhedral analyzer
(:class:`~repro.ir.dependence.AffineDependenceAnalyzer`) yields the same
table — its enumeration *is* the profiling walk — and the test suite
asserts that agreement for every affine workload.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..core.slack import producer_for
from ..core.table import ScheduleBook
from ..ir.profiling import AccessTrace
from .diagnostics import Diagnostic, Severity, SourceAnchor

__all__ = ["check_book"]

WriterTable = dict[tuple[str, int], list[tuple[int, int]]]


def _expected_producer(
    writer_table: WriterTable,
    file: str,
    block: int,
    blocks: int,
    slot: int,
    process: int,
) -> Optional[tuple[int, int]]:
    """The binding producer over all covered blocks (same resolution as
    the slack pass)."""
    producer: Optional[tuple[int, int]] = None
    for b in range(block, block + blocks):
        cand = producer_for(writer_table.get((file, b)), slot, process)
        if cand is not None and (producer is None or cand > producer):
            producer = cand
    return producer


def check_book(trace: AccessTrace, book: ScheduleBook) -> list[Diagnostic]:
    """All SCHED* diagnostics for ``book`` against ``trace``."""
    writer_table = trace.last_writer_table()
    diagnostics: list[Diagnostic] = []
    horizon = trace.n_slots

    # Ground truth: the multiset of traced reads, keyed by their stable
    # identity (process, consuming slot, file extent).
    expected = Counter(
        (io.process, io.slot, io.file, io.block, io.blocks)
        for io in trace.reads()
    )

    seen_aids: set[int] = set()
    for pid, table in sorted(book.tables.items()):
        for slot, accesses in table:
            for access in accesses:
                anchor = SourceAnchor(
                    process=access.process,
                    slot=access.scheduled_slot,
                    aid=access.aid,
                    file=access.file,
                    block=access.block,
                )

                # SCHED003 — duplicates (skip further checks on the copy
                # so one corruption does not cascade into noise).
                if access.aid in seen_aids:
                    diagnostics.append(Diagnostic(
                        "SCHED003", Severity.ERROR,
                        f"access a{access.aid} is scheduled more than once",
                        anchor,
                    ))
                    continue
                seen_aids.add(access.aid)

                # SCHED005 — table/process mismatch.
                if access.process != pid or table.process != pid:
                    diagnostics.append(Diagnostic(
                        "SCHED005", Severity.ERROR,
                        f"access a{access.aid} of process {access.process} "
                        f"is filed under table {pid}",
                        anchor,
                    ))

                # SCHED008 — phantom (no such traced read).
                key = (access.process, access.original_slot, access.file,
                       access.block, access.blocks)
                if expected[key] > 0:
                    expected[key] -= 1
                else:
                    diagnostics.append(Diagnostic(
                        "SCHED008", Severity.ERROR,
                        f"access a{access.aid} matches no traced read "
                        f"(claimed consumption at slot {access.original_slot})",
                        anchor,
                    ))
                    continue

                scheduled = access.scheduled_slot
                if scheduled is None:
                    # ScheduleTable.add refuses these, but a hand-built
                    # book can hold them; the window checks need a slot.
                    diagnostics.append(Diagnostic(
                        "SCHED004", Severity.ERROR,
                        f"access a{access.aid} has no scheduled slot",
                        anchor,
                    ))
                    continue

                # SCHED001 — outside the access's own slack window.
                if not (access.begin <= scheduled <= access.end):
                    diagnostics.append(Diagnostic(
                        "SCHED001", Severity.ERROR,
                        f"scheduled slot {scheduled} outside slack window "
                        f"[{access.begin}, {access.end}]",
                        anchor,
                    ))

                # SCHED002 — outside the slot horizon (trace's, not the
                # book's own claim, which could be forged alongside).
                if scheduled < 0 or scheduled + access.length > horizon:
                    diagnostics.append(Diagnostic(
                        "SCHED002", Severity.ERROR,
                        f"slots [{scheduled}, {scheduled + access.length}) "
                        f"overrun the horizon of {horizon} slots",
                        anchor,
                    ))

                # SCHED006/SCHED007 — producer agreement and ordering.
                oracle = _expected_producer(
                    writer_table, access.file, access.block, access.blocks,
                    access.original_slot, access.process,
                )
                if access.producer != oracle:
                    diagnostics.append(Diagnostic(
                        "SCHED006", Severity.ERROR,
                        f"recorded producer {access.producer} disagrees with "
                        f"the dependence oracle {oracle}",
                        anchor,
                    ))
                if oracle is not None and scheduled <= oracle[0]:
                    diagnostics.append(Diagnostic(
                        "SCHED007", Severity.ERROR,
                        f"prefetch at slot {scheduled} not after the "
                        f"producing write (slot {oracle[0]} by process "
                        f"{oracle[1]})",
                        anchor,
                    ))

    # SCHED004 — traced reads the book never schedules.
    for (process, slot, file, block, blocks), count in sorted(
        expected.items()
    ):
        if count > 0:
            diagnostics.append(Diagnostic(
                "SCHED004", Severity.ERROR,
                f"{count} read(s) of {file}[{block}:{block + blocks}] at "
                f"slot {slot} have no scheduled access",
                SourceAnchor(process=process, slot=slot, file=file,
                             block=block),
            ))
    return diagnostics
