"""Tests for the static energy-bounds analyzer (repro.analysis.energy).

The load-bearing guarantee is *soundness*: for every configuration the
DES-simulated fleet energy must lie inside the analyzer's certified
[lower, upper] envelope.  The corpus here sweeps all six workloads
across the capability classes (none / spin-down / multi-speed), scheme
on and off, plus faulted configurations — faults may only *widen* the
envelope, never break containment.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CORPUS_POLICIES,
    analyze_energy,
    check_envelope,
    widen_envelope,
)
from repro.analysis.energy import POLICY_CLASSES, Interval
from repro.experiments import APPS, ExperimentConfig, Runner
from repro.faults import FaultEvent, FaultPlan
from repro.ir import (
    Compute,
    FileDecl,
    Loop,
    Program,
    Read,
    Write,
    trace_program,
    var,
)
from repro.ir.dependence import (
    AffineDependenceAnalyzer,
    certainly_cold_blocks,
)
from repro.ir.profiling import AccessTrace, ProcessTrace, TracedIO
from repro.storage import ParallelFileSystem
from repro.storage.raid import RaidMap
from repro.storage.striping import plan_layout

SMALL = ExperimentConfig(n_clients=4, n_ionodes=4, workload_scale=0.05)

MB = 1024 * 1024


@pytest.fixture(scope="module")
def runner():
    return Runner(SMALL)


# ----------------------------------------------------------------------
# Abstract domain
# ----------------------------------------------------------------------
class TestInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_contains_with_relative_slack(self):
        iv = Interval(10.0, 20.0)
        assert iv.contains(10.0)
        assert iv.contains(20.0)
        assert iv.contains(15.0)
        # Float-dust beyond the bound is tolerated, real escapes are not.
        assert iv.contains(20.0 * (1 + 1e-12))
        assert not iv.contains(20.1)
        assert not iv.contains(9.9)

    def test_widen_is_monotone(self):
        iv = Interval(10.0, 20.0)
        wide = iv.widen(0.25)
        assert wide.lo <= iv.lo
        assert wide.hi >= iv.hi
        assert wide.lo >= 0.0

    def test_widen_zero_is_identity(self):
        iv = Interval(3.0, 7.0)
        assert iv.widen(0.0) == iv


class TestWideningProperties:
    """Widening only ever loosens — the soundness-preservation property."""

    intervals = st.tuples(
        st.floats(min_value=0.0, max_value=1e9),
        st.floats(min_value=0.0, max_value=1e9),
    ).map(lambda t: Interval(min(t), max(t)))
    factors = st.floats(min_value=0.0, max_value=2.0)

    @given(iv=intervals, factor=factors, frac=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_widened_interval_contains_original(self, iv, factor, frac):
        value = iv.lo + frac * (iv.hi - iv.lo)
        assert iv.contains(value)
        assert iv.widen(factor).contains(value)

    @given(iv=intervals, f1=factors, f2=factors)
    @settings(max_examples=80, deadline=None)
    def test_widening_composes_monotonically(self, iv, f1, f2):
        twice = iv.widen(f1).widen(f2)
        assert twice.lo <= iv.widen(f1).lo <= iv.lo
        assert twice.hi >= iv.widen(f1).hi >= iv.hi

    @given(factor=factors)
    @settings(max_examples=40, deadline=None)
    def test_widen_envelope_only_loosens(self, factor, runner):
        analysis = analyze_energy(
            runner.trace("hf"), SMALL, "simple", False
        )
        env = analysis.envelope
        wide = widen_envelope(env, factor, "PHASE001")
        for value in (env.energy_j.lo, env.energy_j.hi,
                      (env.energy_j.lo + env.energy_j.hi) / 2):
            assert wide.energy_j.contains(value)
        assert wide.time_s.contains(env.time_s.lo)
        assert wide.time_s.contains(env.time_s.hi)
        assert wide.busy_s.contains(env.busy_s.lo)
        assert wide.busy_s.contains(env.busy_s.hi)
        assert wide.widened_by == env.widened_by + ("PHASE001",)


class TestCheckEnvelope:
    def test_inside_is_clean(self, runner):
        env = analyze_energy(
            runner.trace("hf"), SMALL, "default", False
        ).envelope
        mid = (env.energy_j.lo + env.energy_j.hi) / 2
        assert not len(check_envelope(env, mid))

    def test_outside_is_energy001_error(self, runner):
        env = analyze_energy(
            runner.trace("hf"), SMALL, "default", False
        ).envelope
        report = check_envelope(env, env.energy_j.hi * 2 + 1.0)
        assert report.has_errors
        assert [d.code for d in report] == ["ENERGY001"]


# ----------------------------------------------------------------------
# Analyzer entry-point contract
# ----------------------------------------------------------------------
class TestAnalyzeEnergyContract:
    def test_unknown_policy_rejected(self, runner):
        with pytest.raises(ValueError, match="unknown policy"):
            analyze_energy(runner.trace("hf"), SMALL, "nope", False)

    def test_scheme_requires_book(self, runner):
        with pytest.raises(ValueError, match="ScheduleBook"):
            analyze_energy(runner.trace("hf"), SMALL, "simple", True)

    def test_no_capability_policy_reports_energy003(self, runner):
        analysis = analyze_energy(
            runner.trace("hf"), SMALL, "default", False
        )
        assert "ENERGY003" in analysis.report.codes()
        # No power state below full-speed idle: floor == rest draw.
        assert analysis.envelope.power_w.lo == pytest.approx(17.1)

    def test_capability_policies_reach_lower_floor(self, runner):
        trace = runner.trace("hf")
        spin = analyze_energy(trace, SMALL, "simple", False).envelope
        ramp = analyze_energy(trace, SMALL, "history", False).envelope
        none = analyze_energy(trace, SMALL, "default", False).envelope
        assert spin.power_w.lo < none.power_w.lo
        assert ramp.power_w.lo < spin.power_w.lo

    def test_residencies_shape(self, runner):
        analysis = analyze_energy(
            runner.trace("hf"), SMALL, "simple", False
        )
        assert len(analysis.residencies) == SMALL.n_ionodes
        horizon = analysis.envelope.time_s.hi
        for res in analysis.residencies:
            assert 0.0 <= res.serve_s.lo <= res.serve_s.hi
            assert res.rest_s.hi <= horizon * SMALL.disks_per_node + 1e-9
            if res.nominal_touches >= 2:
                assert res.min_nominal_gap_s <= res.max_nominal_gap_s

    def test_as_dict_round_trips_through_json(self, runner):
        import json

        analysis = analyze_energy(
            runner.trace("sar"), SMALL, "history", False
        )
        doc = json.loads(json.dumps(analysis.as_dict()))
        assert doc["envelope"]["energy_j"]["lo"] <= (
            doc["envelope"]["energy_j"]["hi"]
        )
        assert len(doc["residencies"]) == SMALL.n_ionodes


# ----------------------------------------------------------------------
# The differential soundness corpus
# ----------------------------------------------------------------------
class TestEnvelopeContainment:
    """DES energy inside the certified envelope, every config."""

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("policy", CORPUS_POLICIES)
    @pytest.mark.parametrize("scheme", [False, True])
    def test_des_energy_inside_envelope(self, runner, app, policy, scheme):
        trace = runner.trace(app)
        book = runner.compilation(app).book if scheme else None
        envelope = analyze_energy(
            trace, SMALL, policy, scheme, book=book
        ).envelope
        run = runner.run(app, policy, scheme)
        assert envelope.contains(run.energy_joules), (
            f"{app}/{policy}/scheme={scheme}: {run.energy_joules:.1f} J "
            f"outside [{envelope.energy_j.lo:.1f}, "
            f"{envelope.energy_j.hi:.1f}]"
        )
        assert envelope.time_s.contains(run.execution_time)

    def test_envelope_is_nontrivial(self, runner):
        # The lower bound must do real work, not default to zero.
        envelope = analyze_energy(
            runner.trace("hf"), SMALL, "default", False
        ).envelope
        assert envelope.energy_j.lo > 0
        assert envelope.relative_width < 1.0


FAULT_PLAN = FaultPlan(events=(
    FaultEvent(kind="disk.transient_errors", target="node1.disk0",
               time=5.0, duration=30.0, probability=0.5),
    FaultEvent(kind="net.latency", target="link2", time=0.0,
               duration=60.0, extra_latency=0.005),
    FaultEvent(kind="node.straggle", target="node2", time=10.0,
               duration=40.0, factor=3.0),
))


class TestFaultedContainment:
    """Faults force conservative widening, never a violated bound."""

    @pytest.mark.parametrize("app,policy,scheme", [
        ("sar", "simple", True),
        ("hf", "default", False),
    ])
    def test_faulted_config_still_contained(self, app, policy, scheme):
        cfg = SMALL.scaled(fault_plan=FAULT_PLAN)
        runner = Runner(cfg)
        book = runner.compilation(app).book if scheme else None
        envelope = analyze_energy(
            runner.trace(app), cfg, policy, scheme, book=book
        ).envelope
        assert "PHASE002" in envelope.widened_by
        run = runner.run(app, policy, scheme)
        assert envelope.contains(run.energy_joules)

    def test_degraded_raid5_contained(self):
        cfg = ExperimentConfig(
            n_clients=4, n_ionodes=2, workload_scale=0.05,
            disks_per_node=3, raid_level=5,
            fault_plan=FaultPlan(events=(
                FaultEvent(kind="disk.fail", target="node0.disk1",
                           time=0.0),
            )),
        )
        runner = Runner(cfg)
        envelope = analyze_energy(
            runner.trace("sar"), cfg, "simple", False
        ).envelope
        run = runner.run("sar", "simple", False)
        assert envelope.contains(run.energy_joules)

    def test_faults_only_widen(self, runner):
        clean = analyze_energy(
            runner.trace("sar"), SMALL, "simple", False
        ).envelope
        faulted = analyze_energy(
            Runner(SMALL.scaled(fault_plan=FAULT_PLAN)).trace("sar"),
            SMALL.scaled(fault_plan=FAULT_PLAN), "simple", False,
        ).envelope
        assert faulted.energy_j.lo <= clean.energy_j.lo
        assert faulted.energy_j.hi >= clean.energy_j.hi


# ----------------------------------------------------------------------
# Cold-block oracle (the lower bound's disk-traffic proof)
# ----------------------------------------------------------------------
def _two_phase_program(n_processes=2, steps=3):
    """Phase 1 reads input cold; phase 2 reads back its own writes."""
    files = {
        "inp": FileDecl("inp", n_processes * steps * 64 * 1024, 64 * 1024),
        "tmp": FileDecl("tmp", n_processes * steps * 64 * 1024, 64 * 1024),
    }
    p, t = var("p"), var("t")
    body = [
        Loop("t", 0, steps - 1, body=[
            Read("inp", t * n_processes + p),       # never written: cold
            Compute(1.0),
            Write("tmp", t * n_processes + p),
            Compute(1.0),
        ]),
        Loop("t", 0, steps - 1, body=[
            Read("tmp", t * n_processes + p),       # own write precedes
            Compute(1.0),
        ]),
    ]
    return Program("two-phase", n_processes, files, body)


class TestCertainlyColdBlocks:
    def test_never_written_blocks_are_cold(self):
        trace = trace_program(_two_phase_program())
        cold = certainly_cold_blocks(trace)
        inp_blocks = {key for key in cold if key[0] == "inp"}
        assert inp_blocks == {("inp", b) for b in range(6)}

    def test_write_before_read_blocks_are_not_cold(self):
        trace = trace_program(_two_phase_program())
        cold = certainly_cold_blocks(trace)
        assert not any(key[0] == "tmp" for key in cold)

    def test_read_before_write_is_cold(self):
        # Read at seq 0, write at seq 1, same process: the read must hit
        # disk whatever the interleaving.
        files = {"d": FileDecl("d", 64 * 1024, 64 * 1024)}
        body = [Read("d", 0), Compute(1.0), Write("d", 0)]
        trace = trace_program(Program("rw", 1, files, body))
        assert certainly_cold_blocks(trace) == {("d", 0)}

    def test_cross_process_write_disqualifies(self):
        # Process 0 only reads block 0; process 1 writes it with no
        # earlier read of its own.  In some legal interleaving the write
        # lands first and populates the cache, so the block is not
        # provably cold.
        reader = ProcessTrace(
            process=0, slot_costs=[1.0],
            ios=[TracedIO(0, 0, 0, False, "d", 0, 1)],
        )
        writer = ProcessTrace(
            process=1, slot_costs=[1.0],
            ios=[TracedIO(1, 0, 0, True, "d", 0, 1)],
        )
        trace = AccessTrace(program=None, processes=[reader, writer])
        assert certainly_cold_blocks(trace) == set()

    def test_affine_analyzer_agrees_with_trace_scan(self):
        program = _two_phase_program()
        assert program.is_affine
        static = AffineDependenceAnalyzer(program).certainly_cold_blocks()
        dynamic = certainly_cold_blocks(trace_program(program))
        assert static == dynamic


# ----------------------------------------------------------------------
# Shared layout/physics helpers the analyzer leans on
# ----------------------------------------------------------------------
class TestPlanLayoutAgreement:
    def test_matches_filesystem_allocation(self, sim):
        from conftest import fast_spec

        sizes = {"a": 3 * MB, "b": 1 * MB + 1, "c": 64 * 1024}
        pfs = ParallelFileSystem.build(
            sim, n_nodes=4, stripe_size=64 * 1024,
            disk_spec=fast_spec(), cache_bytes=1 * MB,
        )
        planned = plan_layout(sizes, 64 * 1024, 4)
        for name, size in sizes.items():
            actual = pfs.create_file(name, size)
            assert planned[name].base_row == actual.base_row
            assert planned[name].size == actual.size
            assert (
                planned[name].resolved_start(4)
                == actual.resolved_start(4)
            )


class TestRaidAmplificationPinned:
    """The analyzer's amplification bounds vs the actual translation."""

    @pytest.mark.parametrize("level,disks", [(0, 1), (0, 4), (5, 3),
                                             (5, 5), (10, 2), (10, 4)])
    def test_write_op_amplification_is_max_observed(self, level, disks):
        raid = RaidMap(level, disks, chunk_size=64 * 1024)
        bound = raid.write_op_amplification()
        worst = 0
        for chunk in range(4 * disks):
            ops = raid.map(chunk * 64 * 1024, 64 * 1024, is_write=True)
            worst = max(worst, len(ops))
            assert len(ops) <= bound
        assert worst == bound  # tight, not just sound

    @pytest.mark.parametrize("level,disks", [(0, 4), (5, 4), (10, 4)])
    def test_read_amplification_fault_free(self, level, disks):
        raid = RaidMap(level, disks, chunk_size=64 * 1024)
        for chunk in range(4 * disks):
            ops = raid.map(chunk * 64 * 1024, 64 * 1024, is_write=False)
            assert len(ops) <= raid.read_op_amplification()

    def test_degraded_raid5_read_amplification(self):
        raid = RaidMap(5, 4, chunk_size=64 * 1024)
        bound = raid.read_op_amplification(degraded=True)
        worst = 0
        for chunk in range(16):
            for dead in range(4):
                ops = raid.map(chunk * 64 * 1024, 64 * 1024,
                               is_write=False, dead={dead})
                worst = max(worst, len(ops))
                assert len(ops) <= bound
        assert worst == bound


class TestPolicyCapabilityFlags:
    def test_every_policy_registered(self):
        assert set(POLICY_CLASSES) == {
            "default", "simple", "prediction", "history", "staggered",
            "forecast", "credit", "hybrid",
        }

    def test_capability_classes(self):
        assert not POLICY_CLASSES["default"].can_spin_down
        assert not POLICY_CLASSES["default"].can_ramp
        assert POLICY_CLASSES["simple"].can_spin_down
        assert POLICY_CLASSES["prediction"].can_spin_down
        assert POLICY_CLASSES["history"].can_ramp
        assert POLICY_CLASSES["staggered"].can_ramp
        assert POLICY_CLASSES["forecast"].can_spin_down
        assert POLICY_CLASSES["credit"].can_ramp
        assert POLICY_CLASSES["hybrid"].can_spin_down

    def test_corpus_covers_every_capability_class(self):
        classes = {
            (POLICY_CLASSES[p].can_spin_down, POLICY_CLASSES[p].can_ramp)
            for p in CORPUS_POLICIES
        }
        assert classes == {(False, False), (True, False), (False, True)}


# ----------------------------------------------------------------------
# Envelope metrics (obs integration)
# ----------------------------------------------------------------------
class TestEnvelopeMetrics:
    def test_collect_envelope_metrics_names(self, runner):
        from repro.obs.collect import collect_envelope_metrics
        from repro.obs.metrics import MetricsRegistry

        analysis = analyze_energy(
            runner.trace("hf"), SMALL, "simple", False
        )
        registry = MetricsRegistry()
        collect_envelope_metrics(registry, analysis, measured_joules=1e4)
        snap = registry.snapshot()
        prefix = "analysis.hf.simple.off"
        gauges = snap["gauges"]
        assert gauges[f"{prefix}.energy.lower_j"] == pytest.approx(
            analysis.envelope.energy_j.lo
        )
        assert gauges[f"{prefix}.energy.upper_j"] == pytest.approx(
            analysis.envelope.energy_j.hi
        )
        assert gauges[f"{prefix}.measured_j"] == pytest.approx(1e4)
        assert gauges[f"{prefix}.contained"] == 1.0
        assert f"{prefix}.widenings" in snap["counters"]

    def test_corpus_envelope_widths_are_bounded(self, runner):
        """Every corpus envelope is a proper interval no wider than its
        own upper bound (the ``energy.relative_width`` gauge lies in
        [0, 1])."""
        trace = runner.trace("hf")
        book = runner.compilation("hf").book
        for policy in CORPUS_POLICIES:
            for scheme in (False, True):
                envelope = analyze_energy(
                    trace, SMALL, policy, scheme,
                    book=book if scheme else None,
                ).envelope
                assert envelope.width_j >= 0.0, (policy, scheme)
                assert 0.0 <= envelope.relative_width <= 1.0, (policy, scheme)
