"""Per-I/O-node storage cache (the server half of the two-tier hierarchy).

An LRU cache of fixed-size blocks with write-back semantics.  The cache
absorbs re-reads and defers writes; sequential prefetch is orchestrated by
the owning :class:`~repro.storage.ionode.IONode`, which inserts the
readahead blocks it fetches.  Capacity defaults to Table II's 64 MB per
I/O node.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["CacheStats", "StorageCache"]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache.

    The accounting identity every code path preserves (and
    ``tests/test_storage_cache.py`` checks) is::

        insertions == evictions + invalidations + resident blocks
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class StorageCache:
    """Block-granular LRU cache with dirty tracking."""

    def __init__(self, capacity_bytes: int, block_size: int):
        if capacity_bytes < 0:
            raise ValueError(f"negative capacity: {capacity_bytes}")
        if block_size <= 0:
            raise ValueError(f"block_size must be positive: {block_size}")
        self.block_size = block_size
        self.capacity_blocks = capacity_bytes // block_size
        self._blocks: OrderedDict[int, None] = OrderedDict()  # LRU, oldest first
        self._dirty: set[int] = set()  # resident blocks awaiting destage
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def block_of(self, offset: int) -> int:
        """Block index covering byte ``offset``."""
        return offset // self.block_size

    def blocks_of(self, offset: int, size: int) -> list[int]:
        """Block indices covering the byte extent ``[offset, offset+size)``."""
        if size <= 0:
            return []
        first = offset // self.block_size
        last = (offset + size - 1) // self.block_size
        return list(range(first, last + 1))

    # ------------------------------------------------------------------
    def lookup(self, block: int) -> bool:
        """True on hit; refreshes LRU position and counts the access."""
        if block in self._blocks:
            self._blocks.move_to_end(block)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def contains(self, block: int) -> bool:
        """Presence check without touching LRU order or stats."""
        return block in self._blocks

    def insert(self, block: int, dirty: bool = False) -> list[int]:
        """Insert (or re-dirty) a block.  Returns the *dirty* blocks evicted
        to make room — the caller must flush those to disk."""
        if self.capacity_blocks == 0:
            # Degenerate cache: the block passes straight through —
            # counted as an insertion immediately evicted, so stats-based
            # reports see the traffic instead of a silent hole.
            self.stats.insertions += 1
            self.stats.evictions += 1
            if dirty:
                self.stats.dirty_evictions += 1
            # A dirty insert must be flushed immediately.
            return [block] if dirty else []
        if dirty:
            self._dirty.add(block)
        if block in self._blocks:
            self._blocks.move_to_end(block)
            return []
        self._blocks[block] = None
        self.stats.insertions += 1
        flush: list[int] = []
        while len(self._blocks) > self.capacity_blocks:
            victim, _ = self._blocks.popitem(last=False)
            self.stats.evictions += 1
            if victim in self._dirty:
                self._dirty.remove(victim)
                self.stats.dirty_evictions += 1
                flush.append(victim)
        return flush

    def invalidate(self, block: int) -> bool:
        """Drop a block (e.g. consumed-once data).  Returns whether it was
        present and dirty (caller must flush if so)."""
        if block not in self._blocks:
            return False
        del self._blocks[block]
        self.stats.invalidations += 1
        if block in self._dirty:
            self._dirty.remove(block)
            return True
        return False

    def mark_clean(self, block: int) -> None:
        """Clear the dirty bit after a successful destage."""
        self._dirty.discard(block)

    def dirty_blocks(self) -> list[int]:
        """All currently dirty blocks in ascending block order (the order
        a destage writes them in), read from the dirty set rather than a
        walk of the whole LRU."""
        return sorted(self._dirty)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StorageCache({len(self._blocks)}/{self.capacity_blocks} blocks, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
