"""Access slack determination (§IV-A).

For every dynamic read, the slack is the iteration window between the last
preceding write of the same block (the producer) and the read itself:
``[i_w + 1, i_r]``.  Intra-process and inter-process slacks fall out of the
same table lookup; a *negative* inter-process slack (read iteration before
the producing write, possible after loop parallelization) clamps to the
length-1 window ``[i_w + 1, i_w + 1]``.  Reads of program input (never
written) get slack back to iteration 0, optionally capped by
``max_slack``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from ..ir.profiling import AccessTrace
from ..storage.striping import StripedFile, StripeMap
from .access import DataAccess

__all__ = ["SlackOptions", "determine_slacks", "producer_for"]


@dataclass(frozen=True)
class SlackOptions:
    """Knobs of the slack pass.

    ``max_slack`` bounds how far back an input-file read may float
    (``None`` = to iteration 0).  ``estimate_length`` turns on multi-slot
    access lengths for the extended algorithm: an access covering more
    bytes than ``bytes_per_slot`` spans proportionally many slots.
    """

    max_slack: Optional[int] = None
    estimate_length: bool = False
    bytes_per_slot: int = 4 * 1024 * 1024


def _producer_before(
    writers: list[tuple[int, int]], slot: int
) -> Optional[tuple[int, int]]:
    """Latest (slot_w, proc) with slot_w < slot, via binary search."""
    idx = bisect_left(writers, (slot, -1))
    if idx == 0:
        return None
    return writers[idx - 1]


def producer_for(
    writers: Optional[list[tuple[int, int]]], slot: int, process: int
) -> Optional[tuple[int, int]]:
    """The producer of a read at ``(slot, process)``: the last write before
    it, or — when the first write lands at/after the read (negative slack)
    — that write itself.

    Public because the static verifier (:mod:`repro.analysis`) uses the
    same resolution against the trace's writer table; the two must never
    drift apart.
    """
    if not writers:
        return None
    before = _producer_before(writers, slot)
    if before is not None:
        return before
    # Negative slack: the producing write comes at or after the read's
    # iteration.  The earliest writer is the one the read must wait for.
    first = writers[0]
    if first[1] == process and first[0] == slot:
        # Same process writes and reads in one slot: program order within
        # the slot already sequences them; treat as producer-before.
        return None
    return first


def determine_slacks(
    trace: AccessTrace,
    stripe_map: StripeMap,
    files: dict[str, StripedFile],
    options: SlackOptions = SlackOptions(),
) -> list[DataAccess]:
    """Turn every traced read into a :class:`DataAccess` with its window.

    ``files`` maps program file names to their striped instances (needed
    for signatures).  Accesses come back ordered by (process, seq).
    """
    writer_table = trace.last_writer_table()
    block_bytes = {
        name: decl.block_bytes for name, decl in trace.program.files.items()
    }

    accesses: list[DataAccess] = []
    aid = 0
    for proc_trace in trace.processes:
        for io in proc_trace.ios:
            if io.is_write:
                continue
            file = files[io.file]
            nbytes = io.blocks * block_bytes[io.file]
            offset = io.block * block_bytes[io.file]
            signature = stripe_map.signature(file, offset, nbytes)

            # The binding producer is the latest one over all covered blocks.
            producer: Optional[tuple[int, int]] = None
            for key in io.block_keys():
                cand = producer_for(writer_table.get(key), io.slot, io.process)
                if cand is not None and (producer is None or cand > producer):
                    producer = cand

            if producer is None:
                begin = 0
                if options.max_slack is not None:
                    begin = max(0, io.slot - options.max_slack)
                end = io.slot
            elif producer[0] >= io.slot:
                # Negative slack → clamp to the single slot after the write.
                begin = end = producer[0] + 1
            else:
                begin = producer[0] + 1
                end = io.slot
                if options.max_slack is not None:
                    begin = max(begin, end - options.max_slack)

            length = 1
            if options.estimate_length:
                length = max(1, -(-nbytes // options.bytes_per_slot))

            accesses.append(
                DataAccess(
                    aid=aid,
                    process=io.process,
                    original_slot=io.slot,
                    begin=begin,
                    end=end,
                    signature=signature,
                    length=length,
                    nbytes=nbytes,
                    file=io.file,
                    block=io.block,
                    blocks=io.blocks,
                    producer=producer,
                )
            )
            aid += 1
    return accesses
