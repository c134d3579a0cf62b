"""Behavioural tests of the five power policies (plus the oracle).

Each test drives a scripted request pattern against one policy on a
shrunken-transition disk spec and asserts the decisions the paper ascribes
to that policy.
"""

import math

import pytest

from repro.disk import states as st
from repro.power import (
    HistoryBasedMultiSpeed,
    NoPowerManagement,
    OracleSpinDown,
    PredictionSpinDown,
    SimpleSpinDown,
    StaggeredMultiSpeed,
    make_policy,
    speed_for_idle,
)

from conftest import drain, fast_spec, make_drive, multispeed_fast_spec, submit_read

NAN = math.nan


class TestFactory:
    def test_all_names_resolve(self):
        for name in ("default", "simple", "prediction", "history", "staggered"):
            assert make_policy(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_policy("nope")

    def test_kwargs_forwarded(self):
        policy = make_policy("simple", timeout=3.5)
        assert policy.timeout == 3.5

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_policy("simple", timeout=NAN),
            lambda: make_policy("staggered", step_timeout=NAN),
            lambda: make_policy("history", escalate_after=NAN),
            lambda: make_policy("forecast", epoch=NAN),
            lambda: make_policy("credit", credit_cap=NAN),
            lambda: make_policy("hybrid", divergence_tolerance=NAN),
            lambda: make_policy("prediction", breakeven_margin=NAN),
            lambda: make_policy("prediction", fallback_factor=NAN),
            lambda: OracleSpinDown([], tolerance=NAN),
        ],
        ids=[
            "simple-timeout", "staggered-step_timeout",
            "history-escalate_after", "forecast-epoch", "credit-credit_cap",
            "hybrid-divergence_tolerance", "prediction-breakeven_margin",
            "prediction-fallback_factor", "oracle-tolerance",
        ],
    )
    def test_nan_knob_rejected(self, build):
        """Every range check is written so that NaN fails it."""
        with pytest.raises(ValueError):
            build()

    def test_unbound_policy_has_no_sim(self):
        with pytest.raises(RuntimeError):
            _ = SimpleSpinDown().sim


class TestNoPowerManagement:
    def test_never_spins_down(self, sim):
        drive = make_drive(sim)
        drive.attach_policy(NoPowerManagement())
        submit_read(sim, drive, 0.0)
        submit_read(sim, drive, 100.0)
        drain(sim, drive)
        assert drive.stats.spin_downs == 0
        assert drive.timeline.time_in_state(st.STANDBY) == 0


class TestSimpleSpinDown:
    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            SimpleSpinDown(timeout=-1)

    def test_spins_down_after_timeout(self, sim):
        drive = make_drive(sim)
        drive.attach_policy(SimpleSpinDown(timeout=1.0))
        submit_read(sim, drive, 0.0)
        submit_read(sim, drive, 50.0)
        drain(sim, drive)
        assert drive.stats.spin_downs >= 1
        assert drive.timeline.time_in_state(st.STANDBY) > 0

    def test_short_gap_does_not_trigger(self, sim):
        drive = make_drive(sim)
        drive.attach_policy(SimpleSpinDown(timeout=5.0))
        submit_read(sim, drive, 0.0)
        second = submit_read(sim, drive, 2.0)
        drain(sim, drive)
        # The inter-request gap was below the timeout: the second request
        # found an awake disk.  (The trailing idle after it legitimately
        # spins the disk down once.)
        assert second.response_time < 1.0
        assert drive.stats.spin_downs == 1

    def test_request_pays_spin_up_latency(self, sim):
        spec = fast_spec(spin_up_time=4.0)
        drive = make_drive(sim, spec)
        drive.attach_policy(SimpleSpinDown(timeout=0.5))
        submit_read(sim, drive, 0.0)
        late = submit_read(sim, drive, 30.0)
        drain(sim, drive)
        assert late.response_time >= 4.0


class TestPredictionSpinDown:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PredictionSpinDown(breakeven_margin=0)
        with pytest.raises(ValueError):
            PredictionSpinDown(fallback_factor=-1)

    def _gap_train(self, sim, drive, gaps):
        t = 0.0
        for gap in gaps:
            submit_read(sim, drive, t)
            t += gap
        submit_read(sim, drive, t)

    def test_spins_down_immediately_once_history_predicts_long(self, sim):
        spec = fast_spec()  # breakeven well under 100s
        drive = make_drive(sim, spec)
        policy = PredictionSpinDown(fallback_factor=0)
        drive.attach_policy(policy)
        # A run of equal 100s gaps: gap 1 observed, gaps 2+ predicted.
        self._gap_train(sim, drive, [100.0] * 4)
        drain(sim, drive)
        assert policy.spin_down_decisions >= 2
        assert drive.timeline.time_in_state(st.STANDBY) > 0

    def test_never_fires_on_short_gap_history(self, sim):
        drive = make_drive(sim)
        policy = PredictionSpinDown(fallback_factor=0)
        drive.attach_policy(policy)
        self._gap_train(sim, drive, [2.0] * 10)
        drain(sim, drive)
        assert policy.spin_down_decisions == 0

    def test_proactive_wake_hides_latency(self, sim):
        spec = fast_spec(spin_up_time=4.0, spin_down_time=1.0)
        drive = make_drive(sim, spec)
        policy = PredictionSpinDown(fallback_factor=0)
        drive.attach_policy(policy)
        gaps = [100.0] * 5
        t = 0.0
        reqs = []
        for gap in gaps:
            reqs.append(submit_read(sim, drive, t))
            t += gap
        reqs.append(submit_read(sim, drive, t))
        drain(sim, drive)
        # After warm-up, requests land on an already-awake disk.
        assert reqs[-1].response_time < 1.0

    def test_fallback_catches_unpredicted_long_gap(self, sim):
        spec = fast_spec()
        drive = make_drive(sim, spec)
        policy = PredictionSpinDown(fallback_factor=0.5)
        drive.attach_policy(policy)
        # Short-gap history, then one enormous gap.
        self._gap_train(sim, drive, [1.0] * 5 + [400.0])
        drain(sim, drive)
        assert policy.fallback_spin_downs == 1

    def test_micro_gaps_not_observed(self, sim):
        drive = make_drive(sim)
        policy = PredictionSpinDown(fallback_factor=0)
        drive.attach_policy(policy)
        micro = PredictionSpinDown.MIN_OBSERVE / 2
        self._gap_train(sim, drive, [micro] * 5 + [50.0])
        drain(sim, drive)
        # The micro-gaps are filtered; only the 50s gap and the trailing
        # simulation-end idle qualify as observations.
        assert policy.predictor.observations == 2
        assert policy.predictor.recent[0] == pytest.approx(50.0, abs=0.1)


class TestHistoryBasedMultiSpeed:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HistoryBasedMultiSpeed(utilization_bound=0)
        with pytest.raises(ValueError):
            HistoryBasedMultiSpeed(utilization_bound=1.5)
        with pytest.raises(ValueError):
            HistoryBasedMultiSpeed(escalate_after=-1)

    def test_dives_on_predicted_long_gaps(self, sim):
        spec = multispeed_fast_spec()
        drive = make_drive(sim, spec)
        policy = HistoryBasedMultiSpeed()
        drive.attach_policy(policy)
        t = 0.0
        for _ in range(5):
            submit_read(sim, drive, t)
            t += 60.0
        submit_read(sim, drive, t)
        drain(sim, drive)
        assert min(policy.speed_choices) < spec.max_rpm
        assert drive.timeline.time_in_state(st.idle_at(spec.min_rpm)) > 0

    def test_stays_at_max_for_tiny_gaps(self, sim):
        spec = multispeed_fast_spec()
        drive = make_drive(sim, spec)
        policy = HistoryBasedMultiSpeed(escalate_after=0)
        drive.attach_policy(policy)
        t = 0.0
        for _ in range(10):
            submit_read(sim, drive, t)
            t += 0.4
        drain(sim, drive)
        assert drive.stats.rpm_steps == 0

    def test_escalation_rescues_unpredicted_gap(self, sim):
        spec = multispeed_fast_spec()
        drive = make_drive(sim, spec)
        policy = HistoryBasedMultiSpeed(escalate_after=1.0)
        drive.attach_policy(policy)
        # History of sub-step gaps, then a giant one.
        t = 0.0
        for _ in range(6):
            submit_read(sim, drive, t)
            t += 0.4
        submit_read(sim, drive, t + 300.0)
        drain(sim, drive)
        assert policy.escalations >= 1
        assert drive.current_rpm < spec.max_rpm or drive.stats.rpm_steps > 0

    def test_returns_to_max_on_arrival(self, sim):
        spec = multispeed_fast_spec()
        drive = make_drive(sim, spec)
        drive.attach_policy(HistoryBasedMultiSpeed())
        t = 0.0
        for _ in range(4):
            submit_read(sim, drive, t)
            t += 30.0
        drain(sim, drive)
        assert drive.target_rpm in (spec.max_rpm, drive.current_rpm)


class TestSpeedForIdle:
    def test_zero_idle_gives_max(self):
        spec = multispeed_fast_spec()
        assert speed_for_idle(spec, 0.0) == spec.max_rpm

    def test_long_idle_gives_min(self):
        spec = multispeed_fast_spec()
        assert speed_for_idle(spec, 10_000.0) == spec.min_rpm

    def test_monotone_in_idle_length(self):
        spec = multispeed_fast_spec()
        speeds = [speed_for_idle(spec, x) for x in (0.5, 2, 5, 20, 100)]
        assert speeds == sorted(speeds, reverse=True)

    def test_round_trip_fits_bound(self):
        spec = multispeed_fast_spec()
        idle = 10.0
        bound = 0.5
        rpm = speed_for_idle(spec, idle, bound)
        round_trip = 2 * spec.rpm_change_time(spec.max_rpm, rpm)
        assert round_trip <= idle * bound

    def test_exact_threshold_takes_the_lower_speed(self):
        """Pin the boundary: when ``2·ramp == idle·bound`` *exactly*,
        the ``<=`` comparison admits the level — the policy drops speed
        rather than staying at full RPM.  With power-of-two operands
        both sides are float-exact, so this is deterministic, and a
        future rewrite to ``<`` (or a rearrangement that divides instead
        of multiplying) would flip it.
        """
        spec = multispeed_fast_spec()
        level = spec.rpm_levels[1]  # one step below max
        ramp = spec.rpm_change_time(spec.max_rpm, level)
        bound = 0.5
        predicted = 4.0 * ramp  # 2·ramp == predicted·bound exactly
        assert 2.0 * ramp == predicted * bound
        assert speed_for_idle(spec, predicted, bound) == level

    def test_just_below_threshold_stays_at_max(self):
        spec = multispeed_fast_spec()
        level = spec.rpm_levels[1]
        ramp = spec.rpm_change_time(spec.max_rpm, level)
        predicted = 4.0 * ramp
        import math
        assert (
            speed_for_idle(spec, math.nextafter(predicted, 0.0), 0.5)
            == spec.max_rpm
        )

    @pytest.mark.parametrize("level_index", [1, 2, 3])
    def test_exact_threshold_deterministic_per_level(self, level_index):
        """At each level's exact threshold the chosen speed is that
        level itself: it qualifies, and every slower level's round trip
        strictly exceeds the budget."""
        spec = multispeed_fast_spec()
        level = spec.rpm_levels[level_index]
        ramp = spec.rpm_change_time(spec.max_rpm, level)
        predicted = 4.0 * ramp
        for _ in range(3):  # no hidden state: identical calls agree
            assert speed_for_idle(spec, predicted, 0.5) == level


class TestStaggered:
    def test_negative_dwell_rejected(self):
        with pytest.raises(ValueError):
            StaggeredMultiSpeed(step_timeout=-1)

    def test_walks_down_ladder_during_long_idle(self, sim):
        spec = multispeed_fast_spec()
        drive = make_drive(sim, spec)
        drive.attach_policy(StaggeredMultiSpeed(step_timeout=0.5))
        submit_read(sim, drive, 0.0)
        submit_read(sim, drive, 60.0)
        drain(sim, drive)
        assert drive.timeline.time_in_state(st.idle_at(spec.min_rpm)) > 0

    def test_sub_dwell_gaps_never_trigger(self, sim):
        spec = multispeed_fast_spec()
        drive = make_drive(sim, spec)
        drive.attach_policy(StaggeredMultiSpeed(step_timeout=2.0))
        t = 0.0
        for _ in range(8):
            submit_read(sim, drive, t)
            t += 1.0
        # Check before the trailing idle outlives the dwell.
        sim.run(until=t + 0.5)
        assert drive.stats.rpm_steps == 0
        drive.finalize()

    def test_arrival_retargets_max(self, sim):
        spec = multispeed_fast_spec()
        drive = make_drive(sim, spec)
        drive.attach_policy(StaggeredMultiSpeed(step_timeout=0.5))
        submit_read(sim, drive, 0.0)
        submit_read(sim, drive, 30.0)
        # Right after the arrival the policy targets the fastest speed
        # (Figure 3(b): "the disk is transitioned back to the fastest
        # speed" when the next request comes).
        sim.run(until=30.05)
        assert drive.target_rpm == spec.max_rpm
        sim.run()
        drive.finalize()

    def test_staggered_descends_gradually(self, sim):
        """Intermediate speeds appear in the timeline (Fig. 3(b))."""
        spec = multispeed_fast_spec()
        drive = make_drive(sim, spec)
        drive.attach_policy(StaggeredMultiSpeed(step_timeout=1.0))
        submit_read(sim, drive, 0.0)
        submit_read(sim, drive, 40.0)
        drain(sim, drive)
        states = {iv.state for iv in drive.timeline.intervals()}
        intermediate = [
            st.idle_at(r) for r in spec.rpm_levels[1:-1]
        ]
        assert sum(1 for s in intermediate if s in states) >= 3


class TestOracle:
    def test_oracle_spins_down_only_when_profitable(self, sim):
        spec = fast_spec()
        drive = make_drive(sim, spec)
        be = spec.breakeven_idle_seconds()
        # Idle starts at ~t0 (after first request) and at ~t1.
        knowledge = [(0.03, be * 3), (be * 3 + 0.06, 1.0)]
        policy = OracleSpinDown(knowledge)
        drive.attach_policy(policy)
        submit_read(sim, drive, 0.0)
        submit_read(sim, drive, be * 3)
        submit_read(sim, drive, be * 3 + 1.0)
        drain(sim, drive)
        assert policy.correct_decisions == 1
        assert drive.stats.spin_downs == 1

    def test_oracle_hides_latency(self, sim):
        spec = fast_spec(spin_up_time=4.0, spin_down_time=1.0)
        drive = make_drive(sim, spec)
        be = spec.breakeven_idle_seconds()
        gap = be * 3
        policy = OracleSpinDown([(0.03, gap)])
        drive.attach_policy(policy)
        submit_read(sim, drive, 0.0)
        late = submit_read(sim, drive, gap)
        drain(sim, drive)
        assert late.response_time < 1.0

    def test_oracle_with_no_knowledge_does_nothing(self, sim):
        drive = make_drive(sim)
        policy = OracleSpinDown([])
        drive.attach_policy(policy)
        submit_read(sim, drive, 0.0)
        submit_read(sim, drive, 500.0)
        drain(sim, drive)
        assert drive.stats.spin_downs == 0
        assert policy.unmatched_idles >= 1

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            OracleSpinDown([], tolerance=0)
