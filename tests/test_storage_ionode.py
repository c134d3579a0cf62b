"""Tests for the I/O node (cache + RAID + destage)."""

import pytest

from repro.metrics.energy import fleet_energy
from repro.storage import IONode, RaidMap, StorageCache

from conftest import make_drive

KB = 1024


def make_node(sim, capacity_blocks=16, prefetch_depth=2, destage_delay=0.5,
              n_disks=1, raid_level=0):
    drives = [make_drive(sim) for _ in range(n_disks)]
    cache = StorageCache(capacity_blocks * 64 * KB, 64 * KB)
    raid = RaidMap(raid_level, n_disks, chunk_size=64 * KB)
    node = IONode(sim, 0, drives, cache, raid,
                  prefetch_depth=prefetch_depth, destage_delay=destage_delay)
    return node


class TestReadPath:
    def test_miss_goes_to_disk_then_hits(self, sim):
        node = make_node(sim)
        done = []
        node.read(0, 64 * KB, lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1
        assert node.drives[0].stats.reads >= 1
        # Second read of the same block: cache hit, no new disk read.
        reads_before = node.drives[0].stats.reads
        node.read(0, 64 * KB, lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 2
        assert node.drives[0].stats.reads == reads_before
        assert node.stats.read_hits >= 1

    def test_hit_completes_at_same_timestamp(self, sim):
        node = make_node(sim)
        node.read(0, 64 * KB, lambda: None)
        sim.run()
        t0 = sim.now
        done = []
        node.read(0, 64 * KB, lambda: done.append(sim.now))
        sim.run()
        assert done == [t0]

    def test_readahead_caches_following_blocks(self, sim):
        node = make_node(sim, prefetch_depth=2)
        node.read(0, 64 * KB, lambda: None)
        sim.run()
        assert node.cache.contains(1)
        assert node.cache.contains(2)

    def test_readahead_zero_disables(self, sim):
        node = make_node(sim, prefetch_depth=0)
        node.read(0, 64 * KB, lambda: None)
        sim.run()
        assert not node.cache.contains(1)

    def test_multiblock_read_completes_once(self, sim):
        node = make_node(sim)
        done = []
        node.read(0, 256 * KB, lambda: done.append(True))
        sim.run()
        assert done == [True]

    def test_byte_stats(self, sim):
        node = make_node(sim)
        node.read(0, 100 * KB, lambda: None)
        sim.run()
        assert node.stats.bytes_read == 100 * KB


class TestWritePath:
    def test_write_completes_without_disk_wait(self, sim):
        node = make_node(sim, destage_delay=5.0)
        done = []
        node.write(0, 64 * KB, lambda: done.append(sim.now))
        sim.run(until=1.0)
        assert done and done[0] < 0.01
        assert node.drives[0].stats.writes == 0  # not destaged yet

    def test_destage_flushes_after_delay(self, sim):
        node = make_node(sim, destage_delay=0.5)
        node.write(0, 64 * KB, lambda: None)
        sim.run()
        assert node.drives[0].stats.writes >= 1
        assert node.cache.dirty_blocks() == []

    def test_destage_batches_multiple_writes(self, sim):
        node = make_node(sim, destage_delay=0.5)
        for i in range(4):
            node.write(i * 64 * KB, 64 * KB, lambda: None)
        sim.run()
        assert node.stats.destages == 1

    def test_dirty_eviction_forces_flush(self, sim):
        node = make_node(sim, capacity_blocks=2, destage_delay=100.0)
        for i in range(4):
            node.write(i * 64 * KB, 64 * KB, lambda: None)
        sim.run(until=1.0)
        # Evicted dirty blocks reached the disk even before the destage.
        assert node.drives[0].stats.writes >= 2

    def test_flush_all_drains_dirty(self, sim):
        node = make_node(sim, destage_delay=1000.0)
        node.write(0, 128 * KB, lambda: None)
        sim.run(until=1.0)
        node.flush_all()
        sim.run()
        assert node.cache.dirty_blocks() == []
        assert node.drives[0].stats.writes >= 1


class TestRaidIntegration:
    def test_raid10_write_mirrors(self, sim):
        node = make_node(sim, n_disks=2, raid_level=10, destage_delay=0.1)
        node.write(0, 64 * KB, lambda: None)
        sim.run()
        assert node.drives[0].stats.writes == 1
        assert node.drives[1].stats.writes == 1

    def test_raid5_write_updates_parity(self, sim):
        node = make_node(sim, n_disks=3, raid_level=5, destage_delay=0.1)
        node.write(0, 64 * KB, lambda: None)
        sim.run()
        total_writes = sum(d.stats.writes for d in node.drives)
        assert total_writes == 2  # data + parity

    def test_mismatched_raid_disks_rejected(self, sim):
        with pytest.raises(ValueError):
            make_node(sim, n_disks=2, raid_level=5)

    def test_node_needs_a_drive(self, sim):
        cache = StorageCache(1024, 64)
        with pytest.raises(ValueError):
            IONode(sim, 0, [], cache, RaidMap(0, 1))

    def test_energy_sums_drives(self, sim):
        node = make_node(sim, n_disks=2, raid_level=10)
        node.write(0, 64 * KB, lambda: None)
        sim.run()
        node.finalize()
        assert fleet_energy(node.drives, sim.now) == sum(
            d.energy_breakdown().total for d in node.drives
        )
