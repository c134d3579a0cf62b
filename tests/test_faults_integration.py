"""End-to-end guarantees of the fault-injection subsystem.

Three layers of evidence, per the fault-model acceptance criteria:

* **Differential**: over a corpus of random (workload, schedule, plan)
  triples, an empty plan is *bit-identical* to no plan at all, and every
  faulted run still satisfies the integration invariants (reads all
  consumed, energy families sum to the total, buffer never oversubscribed).
* **Replay**: one non-empty plan produces identical results and identical
  merged metrics serially and under a 4-worker pool, and faulted points
  can never collide with clean ones in the result cache.
* **Degraded-mode acceptance**: a RAID-5 array with a dead disk completes
  the workload through parity reconstruction, with the recovery visible
  as ``faults.*`` counters through ``repro report``.
"""

import io
import json
import math
import random

import pytest

from repro.exec import (
    CampaignSupervisor,
    ResultCache,
    RunPoint,
    point_digest,
    run_result_to_dict,
)
from repro.experiments import ExperimentConfig, Runner
from repro.faults import FaultEvent, FaultPlan, save_plan
from repro.ir import trace_program
from repro.obs.base import Observability
from repro.obs.metrics import MetricsRegistry
from repro.runtime import Session
from repro.workloads import get_workload

from conftest import fast_spec

KB = 1024

#: Small but full-stack: every layer (clients, net, I/O nodes, drives)
#: participates, runs stay sub-second.
SMALL = ExperimentConfig(n_clients=8, n_ionodes=4, workload_scale=0.05)

CORPUS_APPS = ("sar", "madbench2", "hf")
CORPUS_POLICIES = ("simple", "prediction", "history")


def random_plan(rng: random.Random, cfg: ExperimentConfig) -> FaultPlan:
    """One random-but-valid plan drawn from ``rng``."""
    events = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(sorted(
            {"disk.transient_errors", "disk.bad_sectors", "disk.fail",
             "node.straggle", "node.crash", "net.loss", "net.latency"}
        ))
        node = rng.randrange(cfg.n_ionodes)
        disk = rng.randrange(cfg.disks_per_node)
        time = rng.uniform(0.0, 20.0)
        if kind == "disk.transient_errors":
            events.append(FaultEvent(
                kind=kind, target=f"node{node}.disk{disk}", time=time,
                duration=rng.uniform(5.0, 50.0),
                probability=rng.uniform(0.05, 0.9),
            ))
        elif kind == "disk.bad_sectors":
            start = rng.randrange(0, 4096) * KB
            events.append(FaultEvent(
                kind=kind, target=f"node{node}.disk{disk}", time=time,
                lba_start=start, lba_end=start + rng.randint(1, 256) * KB,
            ))
        elif kind == "disk.fail":
            events.append(FaultEvent(
                kind=kind, target=f"node{node}.disk{disk}", time=time,
            ))
        elif kind == "node.straggle":
            events.append(FaultEvent(
                kind=kind, target=f"node{node}", time=time,
                duration=rng.uniform(1.0, 20.0),
                factor=rng.uniform(1.5, 8.0),
            ))
        elif kind == "node.crash":
            events.append(FaultEvent(
                kind=kind, target=f"node{node}", time=time,
                duration=rng.uniform(0.5, 5.0),
            ))
        elif kind == "net.loss":
            events.append(FaultEvent(
                kind=kind, target=f"node{node}", time=time,
                duration=rng.uniform(1.0, 20.0),
                probability=rng.uniform(0.05, 0.8),
            ))
        else:
            events.append(FaultEvent(
                kind=kind, target=f"node{node}", time=time,
                duration=rng.uniform(1.0, 20.0),
                extra_latency=rng.uniform(0.001, 0.1),
            ))
    return FaultPlan(events=tuple(events), seed=rng.randrange(1 << 16))


def corpus(n: int):
    """n seeded random (workload, schedule, plan) triples."""
    for seed in range(n):
        rng = random.Random(1000 + seed)
        yield (
            rng.choice(CORPUS_APPS),
            rng.choice(CORPUS_POLICIES),
            rng.random() < 0.5,  # scheme on/off
            random_plan(rng, SMALL),
        )


class TestEmptyPlanDifferential:
    """faults=None and faults=FaultPlan() are the same simulation."""

    def test_empty_plan_bit_identical(self):
        clean = Runner(SMALL).run("sar", "simple", True)
        empty = Runner(SMALL.scaled(fault_plan=FaultPlan())).run(
            "sar", "simple", True
        )
        assert run_result_to_dict(empty) == run_result_to_dict(clean)

    @pytest.mark.parametrize(
        "app,policy,scheme", [
            ("madbench2", "history", True),
            ("hf", "prediction", False),
        ],
    )
    def test_empty_plan_bit_identical_across_grid(self, app, policy, scheme):
        clean = Runner(SMALL).run(app, policy, scheme)
        empty = Runner(SMALL.scaled(fault_plan=FaultPlan())).run(
            app, policy, scheme
        )
        assert run_result_to_dict(empty) == run_result_to_dict(clean)

    def test_empty_plan_schedules_no_extra_events(self):
        """The injector adds zero events to the heap — the structural
        reason the bit-identity above holds."""
        def events(plan):
            trace = trace_program(get_workload("sar").build(4, 0.05))
            session = Session(
                trace, fast_spec(), None, SMALL.session_config(),
                faults=plan,
            )
            outcome = session.run()
            assert session.faults is None  # no injector is even built
            return outcome.sim.events_executed

        assert events(None) == events(FaultPlan())


class TestFaultedCorpusInvariants:
    """Random faulted runs keep the cross-cutting invariants."""

    @pytest.mark.parametrize(
        "app,policy,scheme,plan", list(corpus(6)),
        ids=[f"seed{i}" for i in range(6)],
    )
    def test_faulted_run_invariants(self, app, policy, scheme, plan):
        cfg = SMALL.scaled(fault_plan=plan)
        runner = Runner(cfg)
        result = runner.run(app, policy, scheme)
        # The run terminated and produced sane measurements.
        assert result.execution_time > 0
        assert result.energy_joules > 0
        # Energy families sum to the total, and the breakdown's own
        # total is bit-identical to the fleet energy (same sum order).
        assert result.energy_joules == result.energy_breakdown["total"]
        families = math.fsum(
            v for k, v in result.energy_breakdown.items() if k != "total"
        )
        assert families == pytest.approx(
            result.energy_breakdown["total"], rel=1e-9
        )
        if scheme:
            # Every buffer hit consumed a real prefetch.
            assert result.buffer_hits <= result.prefetches

    @pytest.mark.parametrize(
        "app,policy,scheme,plan", list(corpus(3)),
        ids=[f"seed{i}" for i in range(3)],
    )
    def test_faulted_session_conserves_reads(self, app, policy, scheme, plan):
        """Every read the application issues is consumed exactly once,
        faults or no faults, and the buffer never oversubscribes."""
        trace = trace_program(get_workload(app).build(4, 0.05))
        session = Session(
            trace, fast_spec(), None, SMALL.session_config(), faults=plan,
        )
        outcome = session.run()
        expected_reads = sum(
            1 for p in trace.processes for io in p.ios if not io.is_write
        )
        consumed = sum(
            c.stats.reads_from_buffer
            + c.stats.reads_waited_on_prefetch
            + c.stats.reads_synchronous
            for c in outcome.clients
        )
        assert consumed == expected_reads
        if outcome.buffer is not None:
            assert outcome.buffer.peak_used <= outcome.buffer.capacity_blocks

    def test_faulted_run_is_reproducible(self):
        """The determinism contract: same plan, same bits — twice."""
        _, _, _, plan = next(iter(corpus(1)))
        cfg = SMALL.scaled(fault_plan=plan)
        a = Runner(cfg).run("sar", "history", True)
        b = Runner(cfg).run("sar", "history", True)
        assert run_result_to_dict(a) == run_result_to_dict(b)


REPLAY_PLAN = FaultPlan(
    events=(
        FaultEvent(kind="disk.transient_errors", target="*", time=0.0,
                   duration=500.0, probability=0.2),
        FaultEvent(kind="net.loss", target="node0", time=0.0,
                   duration=500.0, probability=0.3),
        FaultEvent(kind="node.straggle", target="node1", time=0.0,
                   duration=200.0, factor=3.0),
    ),
    seed=42,
)


def test_shipped_sample_plan_is_valid():
    """examples/fault_plan.json (the README walkthrough and the CI
    faults-smoke step both use it) must load and inject something."""
    from pathlib import Path

    from repro.faults import load_plan

    path = Path(__file__).resolve().parent.parent / "examples" / \
        "fault_plan.json"
    plan = load_plan(path)
    assert plan  # non-empty
    assert {e.kind for e in plan.events} >= {
        "disk.transient_errors", "net.loss"
    }


class TestSeededReplay:
    """Serial and 4-worker pools replay a faulted grid bit-for-bit."""

    def points(self):
        # >= 2 cache misses, so --jobs 4 genuinely exercises the pool
        # (a single miss is forced serial by the supervisor).
        faulted = SMALL.scaled(fault_plan=REPLAY_PLAN)
        return [
            RunPoint("sar", "simple", True, faulted),
            RunPoint("madbench2", "simple", True, faulted),
        ]

    def test_serial_and_parallel_identical(self):
        points = self.points()
        serial = CampaignSupervisor(jobs=1, metrics=True).run_points(points)
        parallel = CampaignSupervisor(jobs=4, metrics=True).run_points(points)
        for point in points:
            assert run_result_to_dict(parallel.results[point]) == \
                run_result_to_dict(serial.results[point])
        # The merged observability snapshots agree too: every faults.*
        # counter (and everything else) replays exactly.
        merged_serial = serial.metrics
        assert parallel.metrics == merged_serial
        assert any(
            name.startswith("faults.")
            for name in merged_serial.get("counters", {})
        )

    def test_cache_keys_separate_faulted_from_clean(self, tmp_path):
        faulted = SMALL.scaled(fault_plan=REPLAY_PLAN)
        assert point_digest(SMALL, "sar", "simple", True) != \
            point_digest(faulted, "sar", "simple", True)
        # A clean result stored in the cache is invisible to a faulted
        # lookup (and vice versa).
        cache = ResultCache(tmp_path)
        clean_result = Runner(SMALL).run("sar", "simple", True)
        cache.store(SMALL, "sar", "simple", True, clean_result)
        assert cache.lookup(faulted, "sar", "simple", True) is None
        assert cache.lookup(SMALL, "sar", "simple", True) is not None

    def test_different_seeds_are_distinct_cache_points(self):
        a = SMALL.scaled(fault_plan=REPLAY_PLAN)
        b = SMALL.scaled(
            fault_plan=FaultPlan(events=REPLAY_PLAN.events, seed=43)
        )
        assert point_digest(a, "sar", "simple", True) != \
            point_digest(b, "sar", "simple", True)


class TestRaid5DeadDiskAcceptance:
    """A RAID-5 node with a dead member completes via reconstruction."""

    CFG = ExperimentConfig(
        n_clients=8, n_ionodes=2, workload_scale=0.05,
        disks_per_node=3, raid_level=5,
        fault_plan=FaultPlan(events=(
            FaultEvent(kind="disk.fail", target="node0.disk1", time=0.0),
        )),
    )

    def test_run_completes_with_reconstruction_counters(self):
        runner = Runner(self.CFG)
        registry = MetricsRegistry()
        result = runner.run(
            "sar", "simple", False, obs=Observability(metrics=registry)
        )
        assert result.execution_time > 0
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["faults.injected.disk.fail"] == 1
        assert counters["faults.raid.degraded_reads"] > 0
        assert counters["faults.raid.reconstructed"] > 0
        assert counters.get("faults.raid.lost_ops", 0) == 0

    def test_dead_disk_serves_no_requests(self):
        trace = trace_program(get_workload("sar").build(4, 0.05))
        session = Session(
            trace, fast_spec(), None, self.CFG.session_config(),
            faults=self.CFG.fault_plan,
        )
        outcome = session.run()
        dead = next(d for d in outcome.drives if d.name == "node0.disk1")
        assert dead.is_dead
        assert dead.stats.requests == 0
        # Its RAID-5 peers absorbed the load.
        peers = [d for d in outcome.drives
                 if d.name.startswith("node0.") and d is not dead]
        assert all(p.stats.requests > 0 for p in peers)

    def test_cli_reports_fault_counters(self, tmp_path):
        """repro run --faults … --metrics … then repro report --filter
        'faults.*' shows the recovery counters (acceptance path)."""
        from repro.cli import main

        plan_path = save_plan(
            FaultPlan(events=(
                FaultEvent(kind="disk.transient_errors", target="*",
                           time=0.0, duration=500.0, probability=0.3),
            ), seed=7),
            tmp_path / "plan.json",
        )
        metrics_path = tmp_path / "metrics.json"
        out = io.StringIO()
        code = main(
            ["run", "--app", "sar", "--policy", "simple",
             "--scale", "0.05", "--no-cache",
             "--faults", str(plan_path), "--metrics", str(metrics_path)],
            out=out,
        )
        assert code == 0
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["faults.disk.read_errors"] > 0

        report_out = io.StringIO()
        code = main(
            ["report", str(metrics_path), "--filter", "faults.*"],
            out=report_out,
        )
        assert code == 0
        text = report_out.getvalue()
        assert "faults.disk.read_errors" in text
        assert "drive." not in text  # filter applied
