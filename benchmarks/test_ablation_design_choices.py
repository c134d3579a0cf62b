"""Ablation benchmarks for the design choices DESIGN.md calls out.

These are not paper figures; they quantify the decisions the paper leaves
open (tie-breaking, processing order, σ-weight shape) and one substrate
decision (elevator vs FIFO arm scheduling) on a mid-size workload.
"""

import pytest

from repro.core import CompilerOptions, SlackOptions, compile_schedule
from repro.experiments import default_config
from repro.ir import trace_program
from repro.metrics import fleet_energy, idle_cdf, idle_periods_until
from repro.power import HistoryBasedMultiSpeed
from repro.runtime import Session
from repro.storage import StripedFile, StripeMap
from repro.workloads import get_workload


def _compiled(cfg, trace, **options):
    smap = StripeMap(cfg.stripe_size, cfg.n_ionodes)
    files = {
        name: StripedFile(name, decl.size_bytes)
        for name, decl in trace.program.files.items()
    }
    opts = CompilerOptions(
        delta=cfg.delta, theta=cfg.theta,
        slack=SlackOptions(max_slack=cfg.max_slack), **options
    )
    return compile_schedule(trace.program, smap, files, opts, trace=trace)


def _energy_and_idle(cfg, trace, compiled):
    session = Session(
        trace,
        cfg.disk_spec(multispeed=True),
        lambda: HistoryBasedMultiSpeed(
            utilization_bound=cfg.history_utilization_bound
        ),
        cfg.session_config(),
        compile_result=compiled,
    )
    outcome = session.run()
    horizon = outcome.execution_time
    periods = [
        p for d in outcome.drives for p in idle_periods_until(d, horizon)
    ]
    return fleet_energy(outcome.drives, horizon), idle_cdf(periods)


@pytest.fixture(scope="module")
def setup():
    cfg = default_config()
    trace = trace_program(
        get_workload("hf").build(cfg.n_clients, cfg.workload_scale)
    )
    return cfg, trace


def test_ablation_tie_break(setup):
    """Latest-slot tie-breaking preserves long idle periods that random
    seeding fragments (DESIGN.md §7.2)."""
    cfg, trace = setup

    def run():
        results = {}
        for rule in ("latest", "random", "first"):
            compiled = _compiled(cfg, trace, tie_break=rule)
            energy, cdf = _energy_and_idle(cfg, trace, compiled)
            results[rule] = (energy, cdf.mean_seconds)
        return results

    results = run()
    for rule, (energy, mean_idle) in results.items():
        print(f"tie_break={rule:7}: energy={energy:10.1f} J  "
              f"mean idle={mean_idle:6.2f} s")
    # Latest never does worse on energy than the alternatives by more
    # than noise, and it keeps idle periods at least as long on average.
    best = min(e for e, _m in results.values())
    assert results["latest"][0] <= best * 1.05


def test_ablation_scheduling_order(setup):
    """Shortest-slack-first (the paper's choice) versus longest-first and
    program order."""
    cfg, trace = setup

    def run():
        results = {}
        for order in ("shortest", "longest", "program"):
            compiled = _compiled(cfg, trace, order=order)
            energy, _cdf = _energy_and_idle(cfg, trace, compiled)
            results[order] = energy
        return results

    results = run()
    for order, energy in results.items():
        print(f"order={order:9}: energy={energy:10.1f} J")
    # Finding (recorded in EXPERIMENTS.md): on this substrate
    # longest-slack-first can beat the paper's shortest-first by ~10% —
    # flexible accesses claim the best cluster seeds before the
    # constrained ones pin them.  All orders stay within a sane band of
    # each other; the paper's choice is competitive, not dominant.
    assert max(results.values()) <= min(results.values()) * 1.25
    assert results["shortest"] <= results["program"] * 1.05


def test_ablation_weight_shape(setup):
    """Eq. 3's decaying σ weights versus uniform weights over the
    vertical range."""
    cfg, trace = setup

    def run():
        results = {}
        for shape in ("linear", "uniform"):
            compiled = _compiled(cfg, trace, weight_shape=shape)
            energy, _cdf = _energy_and_idle(cfg, trace, compiled)
            results[shape] = energy
        return results

    results = run()
    for shape, energy in results.items():
        print(f"weights={shape:8}: energy={energy:10.1f} J")
    # Both work; the decaying shape must not be a regression.
    assert results["linear"] <= results["uniform"] * 1.10


def test_ablation_arm_scheduling(setup):
    """Elevator (Table II) versus FIFO disk-arm scheduling: elevator's
    shorter seeks keep mean response times at or below FIFO's."""
    import random

    from repro.disk import DiskRequest, Drive
    from repro.sim import Simulator

    def run():
        results = {}
        for policy in ("elevator", "fifo"):
            sim = Simulator()
            drive = Drive(sim, default_config().disk_spec(False),
                          arm_scheduling=policy)
            rng = random.Random(42)
            for burst in range(40):
                base = burst * 2.0
                for _ in range(16):
                    sim.schedule_at(
                        base,
                        drive.submit,
                        DiskRequest(
                            lba=rng.randrange(0, drive.spec.capacity_bytes),
                            nbytes=64 * 1024,
                        ),
                    )
            sim.run()
            drive.finalize()
            results[policy] = drive.stats.mean_response_time
        return results

    results = run()
    for policy, resp in results.items():
        print(f"arm={policy:9}: mean response={resp * 1000:8.2f} ms")
    assert results["elevator"] <= results["fifo"]
