"""File striping across I/O nodes (PVFS-style round-robin).

Each file is divided into fixed-size *stripes* distributed round-robin over
the I/O nodes (Figure 1).  The map from a byte extent to the set of I/O
nodes it touches is what the compiler uses to build access *signatures*
(§IV-B), so this module is shared by the simulation substrate and the
scheduling front end.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

__all__ = ["StripedFile", "StripeMap", "Extent", "plan_layout"]


@dataclass(frozen=True)
class Extent:
    """A contiguous byte range on one I/O node's local address space."""

    node: int
    node_offset: int
    size: int


@dataclass(frozen=True)
class StripedFile:
    """A file striped over the I/O nodes.

    ``start_node`` rotates the round-robin so different files decorrelate
    (PVFS distributes each file starting at a chosen node); by default it
    is derived from a stable hash of the name.  ``base_row`` is the file's
    starting *stripe row* in each node's local byte stream — distinct
    files must occupy disjoint node-local regions (the file system
    allocates these; see :meth:`ParallelFileSystem.create_file`).
    """

    name: str
    size: int
    start_node: int = -1  # -1: derive from name hash
    base_row: int = 0

    def resolved_start(self, n_nodes: int) -> int:
        if self.start_node >= 0:
            return self.start_node % n_nodes
        return zlib.crc32(self.name.encode()) % n_nodes

    def rows(self, stripe_size: int, n_nodes: int) -> int:
        """Stripe rows this file occupies on each node."""
        stripes = -(-self.size // stripe_size)
        return -(-stripes // n_nodes)


def plan_layout(
    sizes: "dict[str, int]", stripe_size: int, n_nodes: int
) -> dict[str, StripedFile]:
    """The striped-file layout :meth:`ParallelFileSystem.create_file`
    would allocate for ``sizes`` registered in iteration order.

    Pure function of the inputs — the static analyzer uses it to reason
    about node-local block identity (which cache blocks alias) without
    instantiating the file system.  Must mirror ``create_file``'s
    sequential base-row allocation exactly; a divergence makes the
    analyzer reason about a different disk layout than the one simulated
    (guarded by a test).
    """
    out: dict[str, StripedFile] = {}
    base_row = 0
    for name, size in sizes.items():
        file = StripedFile(name, size, base_row=base_row)
        out[name] = file
        base_row += file.rows(stripe_size, n_nodes)
    return out


class StripeMap:
    """Round-robin stripe → I/O node mapping for a fixed cluster shape."""

    def __init__(self, stripe_size: int, n_nodes: int):
        if stripe_size <= 0:
            raise ValueError(f"stripe_size must be positive: {stripe_size}")
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive: {n_nodes}")
        self.stripe_size = stripe_size
        self.n_nodes = n_nodes

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def node_of_stripe(self, file: StripedFile, stripe_index: int) -> int:
        """The I/O node holding ``stripe_index`` of ``file``."""
        return (file.resolved_start(self.n_nodes) + stripe_index) % self.n_nodes

    def map_extent(self, file: StripedFile, offset: int, size: int) -> list[Extent]:
        """Split a byte extent of ``file`` into per-node extents.

        ``node_offset`` packs each node's stripes contiguously — stripe *k*
        of the file lands at local offset ``(k // n_nodes) * stripe_size``
        on its node — which is how PVFS I/O servers lay out bstreams.
        Adjacent extents on the same node are coalesced.
        """
        if offset < 0 or size < 0:
            raise ValueError(f"bad extent: offset={offset}, size={size}")
        if offset + size > file.size:
            raise ValueError(
                f"extent [{offset}, {offset + size}) exceeds file "
                f"{file.name!r} of size {file.size}"
            )
        start = file.resolved_start(self.n_nodes)
        extents: list[Extent] = []
        cursor = offset
        remaining = size
        while remaining > 0:
            stripe_index = cursor // self.stripe_size
            within = cursor % self.stripe_size
            chunk = min(self.stripe_size - within, remaining)
            node = (start + stripe_index) % self.n_nodes
            local = (
                file.base_row + stripe_index // self.n_nodes
            ) * self.stripe_size + within
            if (
                extents
                and extents[-1].node == node
                and extents[-1].node_offset + extents[-1].size == local
            ):
                prev = extents.pop()
                extents.append(Extent(node, prev.node_offset, prev.size + chunk))
            else:
                extents.append(Extent(node, local, chunk))
            cursor += chunk
            remaining -= chunk
        return extents

    def nodes_of_extent(self, file: StripedFile, offset: int, size: int) -> set[int]:
        """The set of I/O nodes a byte extent touches."""
        return {e.node for e in self.map_extent(file, offset, size)}

    def signature(self, file: StripedFile, offset: int, size: int) -> int:
        """Bitmask signature g = [η₀ η₁ … η_{n−1}] of the extent (§IV-B):
        bit *i* is set iff I/O node *i* is visited by the access."""
        sig = 0
        for node in self.nodes_of_extent(file, offset, size):
            sig |= 1 << node
        return sig

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StripeMap(stripe_size={self.stripe_size}, n_nodes={self.n_nodes})"
