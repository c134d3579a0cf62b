"""Differential corpus: every simulation kernel is bit-identical.

The pluggable kernels (heap reference, analytic affine fast path) are
*performance* variants only — the distilled
:class:`~repro.experiments.runner.RunResult` must match the heap kernel
byte for byte on every grid point, including faulted and degraded-mode
configurations, serially and under a worker pool.  Equality is asserted
on :func:`~repro.exec.serialize.run_result_to_dict` documents, the same
encoding the result cache and campaign journals persist.

A separate check pins down *when* the analytic fast path may engage:
only on affine, scheme-off, fault-free runs — and that it actually does
engage there (``slots_collapsed > 0``), so the speedup can never
silently rot into "analytic == heap".
"""

import pytest

from repro.analysis import CORPUS_POLICIES
from repro.exec import (
    CampaignSupervisor,
    ExperimentExecutor,
    RunPoint,
    run_result_to_dict,
    with_kernel,
)
from repro.experiments import APPS, ExperimentConfig, Runner
from repro.faults import FaultEvent, FaultPlan
from repro.sim import DEFAULT_KERNEL, kernel_names

KERNELS = kernel_names()
ALT_KERNELS = tuple(k for k in KERNELS if k != DEFAULT_KERNEL)

#: Small but full-stack (same shape as the faults corpus): every layer
#: participates, each point simulates in well under a second.
SMALL = ExperimentConfig(n_clients=8, n_ionodes=4, workload_scale=0.05)

#: One shared Runner per kernel — memoization makes each corpus point
#: simulate exactly once per kernel for the whole module.
RUNNERS = {name: Runner(SMALL.scaled(kernel=name)) for name in KERNELS}

#: A deterministic multi-fault plan exercising every recovery layer the
#: kernels must replay identically (retries, degraded reads, stragglers).
FAULTED_PLAN = FaultPlan(
    events=(
        FaultEvent(
            kind="disk.transient_errors", target="node1.disk0", time=2.0,
            duration=30.0, probability=0.5,
        ),
        FaultEvent(kind="node.straggle", target="node0", time=5.0,
                   duration=10.0, factor=3.0),
        FaultEvent(kind="net.latency", target="node2", time=1.0,
                   duration=15.0, extra_latency=0.01),
    ),
    seed=7,
)

#: RAID-5 with a dead member: parity reconstruction on the read path.
DEGRADED_RAID5 = ExperimentConfig(
    n_clients=8, n_ionodes=2, workload_scale=0.05,
    disks_per_node=3, raid_level=5,
    fault_plan=FaultPlan(events=(
        FaultEvent(kind="disk.fail", target="node0.disk1", time=0.0),
    )),
)


def docs_for(workload, policy, scheme):
    return {
        name: run_result_to_dict(runner.run(workload, policy, scheme))
        for name, runner in RUNNERS.items()
    }


@pytest.mark.parametrize("workload", APPS)
@pytest.mark.parametrize("policy", CORPUS_POLICIES)
@pytest.mark.parametrize("scheme", [False, True], ids=["plain", "scheme"])
def test_corpus_point_bit_identical(workload, policy, scheme):
    """6 workloads × corpus policies × scheme on/off: all kernels agree."""
    docs = docs_for(workload, policy, scheme)
    reference = docs[DEFAULT_KERNEL]
    for name in ALT_KERNELS:
        assert docs[name] == reference, (workload, policy, scheme, name)


@pytest.mark.parametrize("workload", ["madbench2", "hf"])
def test_faulted_runs_bit_identical(workload):
    """Fault injection replays identically on every kernel."""
    cfg = SMALL.scaled(fault_plan=FAULTED_PLAN)
    docs = {
        name: run_result_to_dict(
            Runner(cfg.scaled(kernel=name)).run(workload, "simple", True)
        )
        for name in KERNELS
    }
    for name in ALT_KERNELS:
        assert docs[name] == docs[DEFAULT_KERNEL], (workload, name)


def test_degraded_raid5_bit_identical():
    """Parity reconstruction with a dead disk replays identically."""
    docs = {
        name: run_result_to_dict(
            Runner(DEGRADED_RAID5.scaled(kernel=name)).run(
                "sar", "simple", False
            )
        )
        for name in KERNELS
    }
    for name in ALT_KERNELS:
        assert docs[name] == docs[DEFAULT_KERNEL], name


class TestExecutorEquivalence:
    """Kernel identity survives the process pool and the result cache."""

    def points(self):
        base = [
            RunPoint("sar", "simple", False, SMALL),
            RunPoint("madbench2", "history", True, SMALL),
        ]
        out = []
        for kernel in KERNELS:
            out.extend(with_kernel(base, kernel))
        return out

    def test_jobs1_and_jobs4_bit_identical(self):
        points = self.points()
        serial = CampaignSupervisor(
            ExperimentExecutor(jobs=1)
        ).run_points(points).results
        parallel = CampaignSupervisor(
            ExperimentExecutor(jobs=4)
        ).run_points(points).results
        assert set(serial) == set(parallel) == set(points)
        for point in points:
            assert (
                run_result_to_dict(parallel[point])
                == run_result_to_dict(serial[point])
            ), point.label()

    def test_kernels_never_collide_in_memo(self):
        """with_kernel re-keys the config, so per-kernel points are
        distinct grid cells (distinct cache keys), not aliases."""
        points = self.points()
        assert len({p.config.to_key() for p in points}) == len(KERNELS)


class TestAnalyticEngagement:
    """The fast path must engage exactly where it is eligible."""

    def test_collapses_affine_scheme_off_run(self):
        runner = Runner(SMALL.scaled(kernel="analytic"))
        _, stats = runner.measure("sweep", "simple", False)
        assert stats["kernel"] == "analytic"
        assert stats["slots_collapsed"] > 0
        assert stats["phases_collapsed"] > 0

    def test_no_collapse_under_scheme(self):
        """A compiled schedule forbids collapsing (prefetch interleaves
        with compute inside the phase)."""
        runner = Runner(SMALL.scaled(kernel="analytic"))
        _, stats = runner.measure("sweep", "simple", True)
        assert stats["slots_collapsed"] == 0

    def test_no_collapse_under_faults(self):
        cfg = SMALL.scaled(kernel="analytic", fault_plan=FAULTED_PLAN)
        runner = Runner(cfg)
        _, stats = runner.measure("madbench2", "simple", False)
        assert stats["slots_collapsed"] == 0

    def test_heap_never_collapses(self):
        _, stats = RUNNERS["heap"].measure("sweep", "simple", False)
        assert stats["kernel"] == "heap"
        assert stats["slots_collapsed"] == 0
