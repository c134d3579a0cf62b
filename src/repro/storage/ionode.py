"""The I/O node: storage cache + RAID-mapped disks + destage machinery.

An :class:`IONode` receives node-local byte extents (already produced by
the stripe map) and serves them through its storage cache.  Read misses go
to the disks via the RAID map with sequential readahead; writes are
write-back — they complete into the cache immediately and a destage timer
flushes dirty blocks to the disks shortly after, which is what puts the
write-induced busy periods near the writes in the disk timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..disk.drive import DiskRequest, Drive
from ..sim.engine import Simulator
from ..sim.events import Event
from .cache import StorageCache
from .raid import RaidMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injector import FaultCounters

__all__ = ["IONode", "IONodeStats"]


@dataclass
class IONodeStats:
    """Aggregate request statistics for one I/O node."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_hits: int = 0
    destages: int = 0


class IONode:
    """One parallel-file-system I/O server."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        drives: list[Drive],
        cache: StorageCache,
        raid: RaidMap,
        prefetch_depth: int = 2,
        destage_delay: float = 0.5,
        fault_counters: Optional["FaultCounters"] = None,
    ):
        if not drives:
            raise ValueError("an I/O node needs at least one drive")
        if raid.n_disks != len(drives):
            raise ValueError(
                f"RAID map expects {raid.n_disks} disks, got {len(drives)}"
            )
        self.sim = sim
        self.node_id = node_id
        self.drives = drives
        self.cache = cache
        self.raid = raid
        self.prefetch_depth = prefetch_depth
        self.destage_delay = destage_delay
        self.stats = IONodeStats()
        self._destage_timer: Optional[Event] = None
        self._last_read_block = -2
        self._tracer = sim.obs.tracer
        self._fault_counters = fault_counters
        # Dead-disk routing is consulted per translation, but only when a
        # disk.fail event can ever kill one of *these* drives — every
        # other run keeps the fault-free fast path.
        self._dead_tracking = any(
            d.fault_state is not None and d.fault_state.can_die
            for d in drives
        )

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def read(
        self, node_offset: int, size: int, on_complete: Callable[[], None]
    ) -> None:
        """Serve a node-local read; ``on_complete`` fires when all covered
        blocks are cache-resident (hit: immediately, this timestamp)."""
        self.stats.reads += 1
        self.stats.bytes_read += size
        blocks = self.cache.blocks_of(node_offset, size)
        missing = [b for b in blocks if not self.cache.lookup(b)]
        self.stats.read_hits += len(blocks) - len(missing)
        if self._tracer.detail:
            self._tracer.event(
                "ionode.read",
                node=self.node_id,
                nbytes=size,
                blocks=len(blocks),
                misses=len(missing),
            )
        sequential = bool(blocks) and blocks[0] in (
            self._last_read_block,
            self._last_read_block + 1,
        )
        if blocks:
            self._last_read_block = blocks[-1]
        if not missing:
            self.sim.schedule(0.0, on_complete)
            return

        # Extend the miss run with sequential readahead.
        fetch = list(missing)
        for k in range(1, self.prefetch_depth + 1):
            candidate = missing[-1] + k
            if not self.cache.contains(candidate):
                fetch.append(candidate)

        pending = {"n": 0}

        def one_disk_done(_req: DiskRequest) -> None:
            pending["n"] -= 1
            if pending["n"] == 0:
                for block in fetch:
                    flush = self.cache.insert(block, dirty=False)
                    self._flush_blocks(flush)
                on_complete()

        ops = self._runs_to_disk_ops(fetch, is_write=False, sequential=sequential)
        if not ops:
            # Every physical op was lost to dead disks with no surviving
            # redundancy (counted by the RAID translation).  Complete the
            # read anyway — the simulator models degraded timing, not
            # data recovery — so clients never wedge on a dead stripe.
            pending["n"] = 1
            self.sim.schedule(0.0, one_disk_done, None)
            return
        pending["n"] = len(ops)
        for drive, req in ops:
            req.on_complete = one_disk_done
            drive.submit(req)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def write(
        self, node_offset: int, size: int, on_complete: Callable[[], None]
    ) -> None:
        """Write-back: dirty the covered blocks, complete immediately, and
        arm the destage timer."""
        self.stats.writes += 1
        self.stats.bytes_written += size
        if self._tracer.detail:
            self._tracer.event("ionode.write", node=self.node_id, nbytes=size)
        for block in self.cache.blocks_of(node_offset, size):
            flush = self.cache.insert(block, dirty=True)
            self._flush_blocks(flush)
        self._arm_destage()
        self.sim.schedule(0.0, on_complete)

    def _arm_destage(self) -> None:
        if self._destage_timer is None:
            self._destage_timer = self.sim.schedule(
                self.destage_delay, self._destage
            )

    def _destage(self) -> None:
        self._destage_timer = None
        dirty = self.cache.dirty_blocks()
        if not dirty:
            return
        self.stats.destages += 1
        for block in dirty:
            self.cache.mark_clean(block)
        self._flush_blocks(dirty, already_clean=True)

    def _flush_blocks(self, blocks: list[int], already_clean: bool = False) -> None:
        """Write the given cache blocks to the disks (fire and forget)."""
        if not blocks:
            return
        if not already_clean:
            for block in blocks:
                self.cache.mark_clean(block)
        for drive, req in self._runs_to_disk_ops(
            sorted(blocks), is_write=True, sequential=True
        ):
            drive.submit(req)

    def flush_all(self) -> None:
        """Synchronously queue every dirty block for destage (used at
        simulation shutdown so write energy is accounted)."""
        if self._destage_timer is not None:
            self._destage_timer.cancel()
            self._destage_timer = None
        self._destage()

    # ------------------------------------------------------------------
    # Disk translation
    # ------------------------------------------------------------------
    def _runs_to_disk_ops(
        self, blocks: list[int], is_write: bool, sequential: bool
    ) -> list[tuple[Drive, DiskRequest]]:
        """Coalesce consecutive cache blocks into extents, RAID-map them,
        and build one DiskRequest per physical operation."""
        bs = self.cache.block_size
        runs: list[tuple[int, int]] = []  # (offset, size)
        for block in blocks:
            offset = block * bs
            if runs and runs[-1][0] + runs[-1][1] == offset:
                runs[-1] = (runs[-1][0], runs[-1][1] + bs)
            else:
                runs.append((offset, bs))
        dead = None
        if self._dead_tracking:
            dead = frozenset(
                i for i, d in enumerate(self.drives) if d.is_dead
            )
            if not dead:
                dead = None
        out: list[tuple[Drive, DiskRequest]] = []
        for offset, size in runs:
            for op in self.raid.map(
                offset, size, is_write,
                dead=dead, counters=self._fault_counters,
            ):
                req = DiskRequest(
                    lba=op.lba,
                    nbytes=op.nbytes,
                    is_write=op.is_write,
                    sequential_hint=sequential,
                )
                out.append((self.drives[op.disk], req))
        return out

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        for drive in self.drives:
            drive.finalize()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IONode({self.node_id}, drives={len(self.drives)})"
