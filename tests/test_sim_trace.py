"""Tests for state timelines (the power-accounting substrate)."""

import pytest

from repro.sim import StateTimeline


class TestTransitions:
    def test_initial_state_and_empty_intervals(self):
        tl = StateTimeline("d", "idle")
        assert tl.current_state == "idle"
        assert len(tl) == 0

    def test_transition_closes_interval(self):
        tl = StateTimeline("d", "idle")
        tl.transition(2.0, "busy")
        ivs = list(tl.intervals())
        assert len(ivs) == 1
        assert (ivs[0].start, ivs[0].end, ivs[0].state) == (0.0, 2.0, "idle")
        assert tl.current_state == "busy"

    def test_same_state_transition_is_noop(self):
        tl = StateTimeline("d", "idle")
        tl.transition(2.0, "idle")
        assert len(tl) == 0
        assert tl.current_since == 0.0

    def test_zero_duration_interval_skipped(self):
        tl = StateTimeline("d", "idle")
        tl.transition(0.0, "busy")
        assert len(tl) == 0
        assert tl.current_state == "busy"

    def test_time_going_backwards_raises(self):
        tl = StateTimeline("d", "idle")
        tl.transition(5.0, "busy")
        with pytest.raises(ValueError):
            tl.transition(4.0, "idle")

    def test_finalize_closes_open_interval(self):
        tl = StateTimeline("d", "idle")
        tl.transition(1.0, "busy")
        tl.finalize(4.0)
        ivs = list(tl.intervals())
        assert ivs[-1].state == "busy"
        assert ivs[-1].duration == 3.0

    def test_finalize_at_current_time_adds_nothing(self):
        tl = StateTimeline("d", "idle")
        tl.transition(1.0, "busy")
        tl.finalize(1.0)
        assert len(tl) == 1  # only the idle interval


class TestAccounting:
    def make(self):
        tl = StateTimeline("d", "idle")
        tl.transition(2.0, "busy")
        tl.transition(5.0, "idle")
        tl.transition(10.0, "standby")
        tl.finalize(12.0)
        return tl

    def test_time_in_state(self):
        tl = self.make()
        assert tl.time_in_state("idle") == pytest.approx(2.0 + 5.0)
        assert tl.time_in_state("busy") == pytest.approx(3.0)
        assert tl.time_in_state("standby") == pytest.approx(2.0)

    def test_total_time_predicate(self):
        tl = self.make()
        low = tl.total_time(lambda s: s in ("idle", "standby"))
        assert low == pytest.approx(9.0)

    def test_durations_partition_horizon(self):
        tl = self.make()
        assert sum(iv.duration for iv in tl.intervals()) == pytest.approx(12.0)


class TestMergedPeriods:
    def test_adjacent_matching_intervals_merge(self):
        tl = StateTimeline("d", "idle")
        tl.transition(1.0, "standby")
        tl.transition(3.0, "idle")
        tl.transition(4.0, "busy")
        tl.finalize(5.0)
        merged = tl.merged_periods(lambda s: s != "busy")
        assert len(merged) == 1
        assert (merged[0].start, merged[0].end) == (0.0, 4.0)

    def test_periods_split_by_non_matching(self):
        tl = StateTimeline("d", "idle")
        tl.transition(1.0, "busy")
        tl.transition(2.0, "idle")
        tl.transition(5.0, "busy")
        tl.finalize(6.0)
        merged = tl.merged_periods(lambda s: s == "idle")
        assert [(m.start, m.end) for m in merged] == [(0.0, 1.0), (2.0, 5.0)]

    def test_trailing_open_period_included_after_finalize(self):
        tl = StateTimeline("d", "busy")
        tl.transition(1.0, "idle")
        tl.finalize(9.0)
        merged = tl.merged_periods(lambda s: s == "idle")
        assert merged[-1].duration == pytest.approx(8.0)

    def test_no_matching_intervals_gives_empty(self):
        tl = StateTimeline("d", "busy")
        tl.finalize(5.0)
        assert tl.merged_periods(lambda s: s == "idle") == []
