"""Parallel file system facade (PVFS substitute).

Owns the striped-file registry, the stripe map, and the I/O nodes; turns a
``(file, offset, size)`` access into per-node sub-requests and exposes the
signature computation the compiler needs.  A convenience constructor builds
the whole Table II storage stack (nodes, caches, RAID, drives, policies).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..disk.drive import Drive
from ..disk.specs import DiskSpec
from ..power.policy import PowerPolicy
from ..sim.engine import Simulator
from .cache import StorageCache
from .ionode import IONode
from .raid import RaidMap
from .striping import Extent, StripedFile, StripeMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injector import FaultInjector

__all__ = ["ParallelFileSystem"]


class ParallelFileSystem:
    """A striped parallel file system over simulated I/O nodes."""

    def __init__(self, stripe_map: StripeMap, nodes: list[IONode]):
        if len(nodes) != stripe_map.n_nodes:
            raise ValueError(
                f"stripe map expects {stripe_map.n_nodes} nodes, got {len(nodes)}"
            )
        self.stripe_map = stripe_map
        self.nodes = nodes
        self._files: dict[str, StripedFile] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        sim: Simulator,
        n_nodes: int,
        stripe_size: int,
        disk_spec: DiskSpec,
        cache_bytes: int,
        policy_factory: Optional[Callable[[], PowerPolicy]] = None,
        disks_per_node: int = 1,
        raid_level: int = 0,
        prefetch_depth: int = 2,
        destage_delay: float = 0.5,
        faults: Optional["FaultInjector"] = None,
    ) -> "ParallelFileSystem":
        """Assemble the full storage stack.

        ``policy_factory`` produces one fresh power policy per drive
        (spinning down an I/O node means spinning down all of its disks,
        so each drive gets its own instance of the same policy).
        ``faults`` threads per-drive fault state and the shared fault
        counters through the stack; ``None`` keeps every fault-free fast
        path.
        """
        nodes: list[IONode] = []
        for node_id in range(n_nodes):
            drives = []
            for d in range(disks_per_node):
                name = f"node{node_id}.disk{d}"
                drive = Drive(
                    sim,
                    disk_spec,
                    name=name,
                    faults=(
                        faults.drive_state(name)
                        if faults is not None
                        else None
                    ),
                )
                if policy_factory is not None:
                    drive.attach_policy(policy_factory())
                drives.append(drive)
            raid = RaidMap(raid_level, disks_per_node, chunk_size=stripe_size)
            cache = StorageCache(cache_bytes, block_size=stripe_size)
            nodes.append(
                IONode(
                    sim,
                    node_id,
                    drives,
                    cache,
                    raid,
                    prefetch_depth=prefetch_depth,
                    destage_delay=destage_delay,
                    fault_counters=(
                        faults.counters if faults is not None else None
                    ),
                )
            )
        return cls(StripeMap(stripe_size, n_nodes), nodes)

    # ------------------------------------------------------------------
    # File registry
    # ------------------------------------------------------------------
    def create_file(self, name: str, size: int, start_node: int = -1) -> StripedFile:
        """Register a striped file.  Idempotent for identical definitions.

        Files are allocated disjoint node-local regions (sequential stripe
        rows), so blocks of different files never alias in the storage
        caches or on the disks.
        """
        existing = self._files.get(name)
        if existing is not None:
            if existing.size != size:
                raise ValueError(f"file {name!r} already exists with another size")
            return existing
        base_row = sum(
            f.rows(self.stripe_map.stripe_size, self.stripe_map.n_nodes)
            for f in self._files.values()
        )
        file = StripedFile(name, size, start_node, base_row=base_row)
        self._files[name] = file
        return file

    def file(self, name: str) -> StripedFile:
        if name not in self._files:
            raise KeyError(f"unknown file {name!r}")
        return self._files[name]

    @property
    def files(self) -> dict[str, StripedFile]:
        return dict(self._files)

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def map_access(self, file: StripedFile, offset: int, size: int) -> list[Extent]:
        return self.stripe_map.map_extent(file, offset, size)

    def signature(self, file: StripedFile, offset: int, size: int) -> int:
        """Access signature bitmask over the I/O nodes (§IV-B)."""
        return self.stripe_map.signature(file, offset, size)

    def access(
        self,
        file: StripedFile,
        offset: int,
        size: int,
        is_write: bool,
        on_complete: Callable[[], None],
    ) -> None:
        """Issue a striped access; ``on_complete`` fires when every
        per-node sub-request finished."""
        extents = self.map_access(file, offset, size)
        if not extents:
            node = self.nodes[0]
            node.sim.schedule(0.0, on_complete)
            return
        pending = {"n": len(extents)}

        def one_done() -> None:
            pending["n"] -= 1
            if pending["n"] == 0:
                on_complete()

        for ext in extents:
            node = self.nodes[ext.node]
            if is_write:
                node.write(ext.node_offset, ext.size, one_done)
            else:
                node.read(ext.node_offset, ext.size, one_done)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def all_drives(self) -> list[Drive]:
        return [d for node in self.nodes for d in node.drives]

    def finalize(self, now: float) -> None:
        """Flush caches, close timelines, notify policies."""
        for node in self.nodes:
            node.flush_all()
        for drive in self.all_drives():
            drive.finalize()
            if drive.policy is not None:
                drive.policy.on_simulation_end(now)

    def idle_periods(self) -> list[float]:
        """Idle-period lengths pooled over all drives (Fig. 12 CDFs)."""
        periods: list[float] = []
        for drive in self.all_drives():
            periods.extend(drive.idle_periods())
        return periods

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ParallelFileSystem({len(self.nodes)} nodes, "
            f"{len(self._files)} files)"
        )
