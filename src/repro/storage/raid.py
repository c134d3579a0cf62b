"""Intra-I/O-node RAID layouts (Table II: "RAID Level 5,10").

An I/O node further stripes its local byte stream across its attached
disks.  :class:`RaidMap` translates one node-local extent into the
per-disk requests that layout implies:

* **RAID-0**  — plain striping, no redundancy.
* **RAID-5**  — block-rotating parity; a write touches the data disk and
  the stripe's parity disk (small-write read-modify-write is modelled as
  the two extra pre-reads).
* **RAID-10** — mirrored pairs; reads alternate between mirrors as a
  *pure function of the extent's address* (stripe row parity), writes
  hit both.

Translation is stateless: the same ``(offset, size, is_write, dead)``
always produces the same operations regardless of call history.  That
purity is what lets faulted runs replay bit-for-bit and lets concurrent
sweeps share nothing.

Degraded mode: passing the set of ``dead`` disks makes the translation
route around them — RAID-5 reads of a dead data disk become a parity
reconstruction (read every surviving disk of the stripe), RAID-10 reads
fail over to the surviving mirror, writes skip dead members (RAID-5
recomputes parity from the survivors).  Operations with no surviving
redundancy are *lost*: counted (``raid_lost_ops``) and dropped, so the
simulation models degraded timing rather than raising.

The paper's default experiments treat each I/O node as one logical disk
("we use the terms I/O node and disk interchangeably"), which is RAID-0
over a single drive; the richer layouts are exercised by the RAID example
and ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from collections.abc import Set

    from ..faults.injector import FaultCounters

__all__ = ["DiskOp", "RaidMap"]

RaidLevel = Literal[0, 5, 10]

_NO_DEAD: frozenset = frozenset()


@dataclass(frozen=True)
class DiskOp:
    """One physical-disk operation produced by the RAID translation."""

    disk: int
    lba: int
    nbytes: int
    is_write: bool


class RaidMap:
    """Extent → per-disk operation translation for one I/O node."""

    def __init__(self, level: RaidLevel, n_disks: int, chunk_size: int = 64 * 1024):
        if level not in (0, 5, 10):
            raise ValueError(f"unsupported RAID level: {level}")
        if n_disks < 1:
            raise ValueError(f"n_disks must be >= 1: {n_disks}")
        if level == 5 and n_disks < 3:
            raise ValueError("RAID-5 requires at least 3 disks")
        if level == 10 and n_disks % 2 != 0:
            raise ValueError("RAID-10 requires an even number of disks")
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive: {chunk_size}")
        self.level = level
        self.n_disks = n_disks
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------
    @property
    def data_disks(self) -> int:
        """Disks worth of usable capacity per stripe row."""
        if self.level == 5:
            return self.n_disks - 1
        if self.level == 10:
            return self.n_disks // 2
        return self.n_disks

    # ------------------------------------------------------------------
    # Worst-case amplification bounds (shared with the static analyzer)
    # ------------------------------------------------------------------
    # Derived from the same translation rules _raid0/_raid5/_raid10
    # implement below; the analyzer consumes these instead of hardcoding
    # RAID arithmetic, and a test pins them against the actual
    # translation so the two can never drift.

    def write_op_amplification(self) -> int:
        """Max physical ops one fault-free chunk-sized write produces."""
        if self.level == 5:
            return 4  # data write + parity write + two RMW pre-reads
        if self.level == 10:
            return 2  # both mirrors
        return 1

    def read_op_amplification(self, degraded: bool = False) -> int:
        """Max physical ops one fault-free (or degraded) chunk read costs."""
        if degraded and self.level == 5:
            return self.n_disks - 1  # parity reconstruction
        return 1

    def _chunks(self, offset: int, size: int):
        """Yield (chunk_index, within, nbytes) covering the extent."""
        cursor = offset
        remaining = size
        while remaining > 0:
            chunk_index = cursor // self.chunk_size
            within = cursor % self.chunk_size
            nbytes = min(self.chunk_size - within, remaining)
            yield chunk_index, within, nbytes
            cursor += nbytes
            remaining -= nbytes

    def map(
        self,
        offset: int,
        size: int,
        is_write: bool,
        dead: Optional["Set[int]"] = None,
        counters: Optional["FaultCounters"] = None,
    ) -> list[DiskOp]:
        """Translate a node-local extent into physical disk operations.

        ``dead`` is the set of failed disk indices to route around (see
        the module docstring for the degraded-mode semantics); ``counters``
        receives the degraded-path tallies when provided.
        """
        if offset < 0 or size < 0:
            raise ValueError(f"bad extent: offset={offset}, size={size}")
        if dead is None:
            dead = _NO_DEAD
        ops: list[DiskOp] = []
        for chunk_index, within, nbytes in self._chunks(offset, size):
            if self.level == 0:
                ops.extend(
                    self._raid0(chunk_index, within, nbytes, is_write,
                                dead, counters)
                )
            elif self.level == 5:
                ops.extend(
                    self._raid5(chunk_index, within, nbytes, is_write,
                                dead, counters)
                )
            else:
                ops.extend(
                    self._raid10(chunk_index, within, nbytes, is_write,
                                 dead, counters)
                )
        return ops

    # ------------------------------------------------------------------
    @staticmethod
    def _lost(counters: Optional["FaultCounters"]) -> list[DiskOp]:
        if counters is not None:
            counters.raid_lost_ops += 1
        return []

    def _raid0(self, chunk_index, within, nbytes, is_write, dead, counters):
        disk = chunk_index % self.n_disks
        row = chunk_index // self.n_disks
        lba = row * self.chunk_size + within
        if disk in dead:
            # No redundancy at RAID-0: the op has nowhere to go.
            return self._lost(counters)
        return [DiskOp(disk, lba, nbytes, is_write)]

    def _raid5(self, chunk_index, within, nbytes, is_write, dead, counters):
        row = chunk_index // self.data_disks
        position = chunk_index % self.data_disks
        parity_disk = (self.n_disks - 1) - (row % self.n_disks)
        # Data disks are the non-parity disks in row order.
        data_disks = [d for d in range(self.n_disks) if d != parity_disk]
        disk = data_disks[position]
        lba = row * self.chunk_size + within

        if not is_write:
            if disk not in dead:
                return [DiskOp(disk, lba, nbytes, False)]
            # Parity reconstruction: XOR of every surviving disk in the
            # stripe (the other data chunks plus parity).
            survivors = [d for d in range(self.n_disks)
                         if d != disk and d not in dead]
            if counters is not None:
                counters.raid_degraded_reads += 1
            if len(survivors) < self.n_disks - 1:
                # A second failure in the stripe: unrecoverable.
                return self._lost(counters)
            if counters is not None:
                counters.raid_reconstructed += 1
            return [DiskOp(d, lba, nbytes, False) for d in survivors]

        if disk in dead and parity_disk in dead:
            return self._lost(counters)
        if disk in dead:
            # Write lands only as parity: new parity = XOR of the new
            # data with every surviving data chunk, so read them all.
            if counters is not None:
                counters.raid_degraded_writes += 1
            ops = [
                DiskOp(d, lba, nbytes, False)
                for d in data_disks
                if d != disk and d not in dead
            ]
            ops.append(DiskOp(parity_disk, lba, nbytes, True))
            return ops
        if parity_disk in dead:
            # Parity member gone: plain data write, no RMW possible.
            if counters is not None:
                counters.raid_degraded_writes += 1
            return [DiskOp(disk, lba, nbytes, True)]
        # Small-write RMW: pre-read old data + old parity, write parity.
        return [
            DiskOp(disk, lba, nbytes, True),
            DiskOp(disk, lba, nbytes, False),
            DiskOp(parity_disk, lba, nbytes, False),
            DiskOp(parity_disk, lba, nbytes, True),
        ]

    def _raid10(self, chunk_index, within, nbytes, is_write, dead, counters):
        pair = chunk_index % self.data_disks
        row = chunk_index // self.data_disks
        primary = pair * 2
        mirror = primary + 1
        lba = row * self.chunk_size + within
        if is_write:
            members = [d for d in (primary, mirror) if d not in dead]
            if not members:
                return self._lost(counters)
            if len(members) < 2 and counters is not None:
                counters.raid_degraded_writes += 1
            return [DiskOp(d, lba, nbytes, True) for d in members]
        # Reads alternate between the mirrors as a pure function of the
        # extent's address (stripe row + pair parity), so translation is
        # history-free and replays identically.
        chosen = primary + ((row + pair) & 1)
        if chosen in dead:
            other = mirror if chosen == primary else primary
            if other in dead:
                return self._lost(counters)
            if counters is not None:
                counters.raid_failed_over += 1
            chosen = other
        return [DiskOp(chosen, lba, nbytes, False)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RaidMap(level={self.level}, disks={self.n_disks})"
