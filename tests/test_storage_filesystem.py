"""Tests for the parallel file system facade."""

import pytest

from repro.metrics.energy import fleet_energy
from repro.storage import ParallelFileSystem

from conftest import fast_spec

KB = 1024
MB = 1024 * KB


def make_pfs(sim, n_nodes=4, cache_mb=1):
    return ParallelFileSystem.build(
        sim,
        n_nodes=n_nodes,
        stripe_size=64 * KB,
        disk_spec=fast_spec(),
        cache_bytes=cache_mb * MB,
    )


class TestFileRegistry:
    def test_create_and_lookup(self, sim):
        pfs = make_pfs(sim)
        f = pfs.create_file("data", 10 * MB)
        assert pfs.file("data") is f

    def test_create_idempotent(self, sim):
        pfs = make_pfs(sim)
        a = pfs.create_file("data", 10 * MB)
        b = pfs.create_file("data", 10 * MB)
        assert a is b

    def test_size_conflict_rejected(self, sim):
        pfs = make_pfs(sim)
        pfs.create_file("data", 10 * MB)
        with pytest.raises(ValueError):
            pfs.create_file("data", 20 * MB)

    def test_unknown_file_raises(self, sim):
        pfs = make_pfs(sim)
        with pytest.raises(KeyError):
            pfs.file("ghost")

    def test_files_get_disjoint_node_local_regions(self, sim):
        pfs = make_pfs(sim)
        a = pfs.create_file("a", 1 * MB)
        b = pfs.create_file("b", 1 * MB)
        assert b.base_row >= a.base_row + a.rows(64 * KB, 4)
        # First stripes of the two files never overlap on any node.
        ea = pfs.map_access(a, 0, 64 * KB)[0]
        eb = pfs.map_access(b, 0, 64 * KB)[0]
        if ea.node == eb.node:
            assert ea.node_offset != eb.node_offset

    def test_build_validates_node_count(self, sim):
        pfs = make_pfs(sim, n_nodes=4)
        assert len(pfs.nodes) == 4
        assert len(pfs.all_drives()) == 4


class TestAccess:
    def test_read_completion_fires_once(self, sim):
        pfs = make_pfs(sim)
        f = pfs.create_file("data", 10 * MB)
        done = []
        pfs.access(f, 0, 256 * KB, False, lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1

    def test_write_completion_fires(self, sim):
        pfs = make_pfs(sim)
        f = pfs.create_file("data", 10 * MB)
        done = []
        pfs.access(f, 0, 128 * KB, True, lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1

    def test_zero_byte_access_completes(self, sim):
        pfs = make_pfs(sim)
        f = pfs.create_file("data", 10 * MB)
        done = []
        pfs.access(f, 0, 0, False, lambda: done.append(True))
        sim.run()
        assert done == [True]

    def test_read_touches_expected_nodes(self, sim):
        pfs = make_pfs(sim)
        f = pfs.create_file("data", 10 * MB, start_node=0)
        pfs.access(f, 0, 256 * KB, False, lambda: None)
        sim.run()
        touched = [n.node_id for n in pfs.nodes if n.stats.reads > 0]
        assert touched == [0, 1, 2, 3]

    def test_signature_exposed(self, sim):
        pfs = make_pfs(sim)
        f = pfs.create_file("data", 10 * MB, start_node=1)
        assert pfs.signature(f, 0, 64 * KB) == 1 << 1


class TestAccounting:
    def test_finalize_flushes_and_closes(self, sim):
        pfs = make_pfs(sim)
        f = pfs.create_file("data", 10 * MB)
        pfs.access(f, 0, 128 * KB, True, lambda: None)
        sim.run(until=0.1)  # before destage
        pfs.finalize(sim.now)
        sim.run()
        assert all(
            node.cache.dirty_blocks() == [] for node in pfs.nodes
        )

    def test_total_energy_positive(self, sim):
        pfs = make_pfs(sim)
        f = pfs.create_file("data", 10 * MB)
        pfs.access(f, 0, 64 * KB, False, lambda: None)
        sim.run()
        pfs.finalize(sim.now)
        assert fleet_energy(pfs.all_drives(), sim.now) > 0

    def test_idle_periods_pooled(self, sim):
        pfs = make_pfs(sim)
        f = pfs.create_file("data", 10 * MB)
        pfs.access(f, 0, 256 * KB, False, lambda: None)
        sim.schedule(5.0, pfs.access, f, 0, 256 * KB, False, lambda: None)
        sim.run()
        pfs.finalize(sim.now)
        assert len(pfs.idle_periods()) >= 4
