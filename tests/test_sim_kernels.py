"""Kernel-interface tests: ComputePhase exactness, lazy signal waiters,
phase energy bounds and the kernel registry."""

import pytest

from repro.experiments import ExperimentConfig
from repro.sim import (
    AnalyticSimulator,
    ComputePhase,
    Signal,
    Simulator,
    Timeout,
    kernel_names,
    make_kernel,
    phase_energy_bounds,
)
from repro.sim.kernels import KERNELS


class TestComputePhase:
    def test_resume_time_is_bit_exact(self):
        """The phase resumes at the *exact* chained-sum target, matching
        what per-slot Timeouts would have produced."""
        costs = [0.1] * 7 + [0.3, 1e-3]

        def per_slot(sim):
            for c in costs:
                yield Timeout(c)

        def collapsed(sim):
            t = sim.now
            for c in costs:
                t = t + c
            yield ComputePhase(t, len(costs))

        ref = Simulator()
        ref.process(per_slot(ref))
        ref.run()
        for cls in (Simulator, AnalyticSimulator):
            sim = cls()
            sim.process(collapsed(sim))
            sim.run()
            assert sim.now == ref.now  # bit-equal, not approx

    def test_analytic_counts_collapsed_phases(self):
        sim = AnalyticSimulator()

        def proc():
            yield ComputePhase(1.5, n_slots=3)
            yield ComputePhase(2.5, n_slots=4)

        sim.process(proc())
        sim.run()
        assert sim.phases_collapsed == 2
        assert sim.slots_collapsed == 7

    def test_heap_ignores_phase_counters(self):
        sim = Simulator()

        def proc():
            yield ComputePhase(1.0)

        sim.process(proc())
        sim.run()
        assert getattr(sim, "phases_collapsed", 0) == 0

    def test_n_slots_validated(self):
        with pytest.raises(ValueError):
            ComputePhase(1.0, n_slots=0)


class TestLazyWaiters:
    def test_no_list_until_first_waiter(self):
        sig = Signal("s")
        assert sig.waiter_count == 0
        assert sig._waiters is None
        hits = []
        sig.add_waiter(hits.append)
        assert sig.waiter_count == 1
        assert sig.fire("v") == [hits.append]

    def test_fire_with_no_waiters_is_empty(self):
        sig = Signal("s", restartable=True)
        assert sig.fire(None) == ()
        sig.reset()
        assert sig.fire(None) == ()


class TestKernelRegistry:
    def test_registry_names_and_classes(self):
        assert kernel_names() == ("heap", "analytic")
        assert KERNELS["heap"] is Simulator
        assert KERNELS["analytic"] is AnalyticSimulator
        assert AnalyticSimulator.__bases__ == (Simulator,)

    def test_make_kernel(self):
        for name in kernel_names():
            sim = make_kernel(name)
            assert sim.kernel_name == name

    def test_unknown_kernel_raises_with_available_list(self):
        with pytest.raises(ValueError, match="analytic"):
            make_kernel("splay-tree")

    def test_retired_calendar_kernel_rejected(self):
        with pytest.raises(ValueError, match="calendar"):
            make_kernel("calendar")
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            ExperimentConfig(kernel="calendar")

    def test_only_analytic_collapses(self):
        assert not Simulator.supports_phase_collapse
        assert AnalyticSimulator.supports_phase_collapse


class TestPhaseEnergyBounds:
    def test_bounds_ordered_and_scale_with_duration(self):
        from repro.disk.specs import TABLE2_DISK

        lo1, hi1 = phase_energy_bounds(TABLE2_DISK, True, True, 100.0)
        lo2, hi2 = phase_energy_bounds(TABLE2_DISK, True, True, 200.0)
        assert 0 <= lo1 <= hi1
        assert lo2 == pytest.approx(2 * lo1)
        assert hi2 > hi1
