"""Tests for the disk power model and energy breakdown."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.disk import DiskPowerModel, DiskRequest, EnergyBreakdown, TABLE2_DISK
from repro.disk import states as st
from repro.disk.power import RPM_DOWN, RPM_UP
from repro.power import SimpleSpinDown
from repro.sim import Simulator, StateTimeline

from conftest import drain, make_drive, multispeed_fast_spec, submit_read


def drive_with_timeline(timeline: StateTimeline):
    """A Table II drive whose recorded timeline is ``timeline``."""
    drive = make_drive(Simulator(), TABLE2_DISK)
    drive.timeline = timeline
    return drive


class TestPowerOf:
    model = DiskPowerModel(TABLE2_DISK)

    def test_table2_mapping(self):
        assert self.model.power_of("idle@12000") == 17.1
        assert self.model.power_of("active_read@12000") == 36.6
        assert self.model.power_of("active_write@12000") == 36.6
        assert self.model.power_of("seek@12000") == 32.1
        assert self.model.power_of(st.STANDBY) == 7.2
        assert self.model.power_of(st.SPIN_UP) == 44.8
        assert self.model.power_of(st.SPIN_DOWN) == 10.0

    def test_reduced_speed_idle(self):
        model = DiskPowerModel(multispeed_fast_spec())
        assert model.power_of("idle@6000") == pytest.approx(17.1 * 0.25)

    def test_rpm_transition_states(self):
        model = DiskPowerModel(multispeed_fast_spec())
        up = model.power_of(f"{RPM_UP}@12000")
        down = model.power_of(f"{RPM_DOWN}@10800")
        assert up > model.power_of("idle@12000")
        assert down < model.power_of("idle@12000")

    def test_unknown_state_raises(self):
        with pytest.raises(ValueError):
            self.model.power_of("warp@9000")

    def test_bare_idle_defaults_to_max_rpm(self):
        assert self.model.power_of(st.IDLE) == 17.1


class TestEnergyIntegration:
    def test_energy_matches_manual_integral(self):
        tl = StateTimeline("d", "idle@12000")
        tl.transition(10.0, "active_read@12000")
        tl.transition(12.0, st.STANDBY)
        tl.finalize(20.0)
        expected = 10 * 17.1 + 2 * 36.6 + 8 * 7.2
        assert drive_with_timeline(tl).energy() == pytest.approx(expected)

    def test_breakdown_families(self):
        tl = StateTimeline("d", "idle@12000")
        tl.transition(5.0, "seek@12000")
        tl.transition(6.0, "active_write@12000")
        tl.transition(8.0, st.SPIN_DOWN)
        tl.transition(18.0, st.STANDBY)
        tl.transition(20.0, st.SPIN_UP)
        tl.finalize(36.0)
        drive = drive_with_timeline(tl)
        b = drive.energy_breakdown()
        assert b.idle == pytest.approx(5 * 17.1)
        assert b.seek == pytest.approx(1 * 32.1)
        assert b.active == pytest.approx(2 * 36.6)
        assert b.spin_down == pytest.approx(10 * 10.0)
        assert b.standby == pytest.approx(2 * 7.2)
        assert b.spin_up == pytest.approx(16 * 44.8)
        assert b.total == drive.energy()

    def test_breakdown_add(self):
        a = EnergyBreakdown(active=1.0, idle=2.0)
        b = EnergyBreakdown(active=3.0, standby=4.0)
        a.add(b)
        assert a.active == 4.0
        assert a.idle == 2.0
        assert a.standby == 4.0

    def test_as_dict_includes_total(self):
        d = EnergyBreakdown(idle=5.0).as_dict()
        assert d["total"] == 5.0
        assert set(d) == {
            "active", "seek", "idle", "standby", "spin_up", "spin_down",
            "rpm_change", "total",
        }

    def test_drive_energy_accumulates_service(self, sim):
        drive = make_drive(sim)
        submit_read(sim, drive, 0.0, nbytes=16 * 2**20)
        drain(sim, drive)
        b = drive.energy_breakdown()
        assert b.active > 0
        assert b.seek >= 0
        assert drive.energy() == b.total

    def test_multispeed_run_has_rpm_energy(self, sim):
        drive = make_drive(sim, multispeed_fast_spec())
        drive.request_rpm(3_600)
        sim.run(until=30.0)
        drive.finalize()
        b = drive.energy_breakdown()
        assert b.rpm_change > 0


#: One request: (arrival gap s, lba, nbytes, write).
_requests = hst.tuples(
    hst.floats(0.0, 4.0, allow_nan=False),
    hst.integers(0, 2**36),
    hst.integers(512, 4 * 2**20),
    hst.booleans(),
)


class TestDriveEnergyIsItsBreakdown:
    """``Drive.energy`` used to re-integrate the timeline with a plain
    ``sum`` while the families ``fsum`` to their total, so the two
    disagreed in the last bits on most request streams."""

    @settings(max_examples=50, deadline=None)
    @given(
        hst.lists(_requests, min_size=1, max_size=40),
        hst.booleans(),
        hst.booleans(),
    )
    def test_energy_equals_breakdown_total(self, stream, spin_down, multispeed):
        sim = Simulator()
        drive = make_drive(
            sim, multispeed_fast_spec() if multispeed else None
        )
        if spin_down:
            drive.attach_policy(SimpleSpinDown(timeout=0.5))
        elif multispeed:
            drive.request_rpm(3_600)
        at = 0.0
        for gap, lba, nbytes, write in stream:
            at += gap
            sim.schedule_at(
                at, drive.submit, DiskRequest(lba=lba, nbytes=nbytes, is_write=write)
            )
        drain(sim, drive)
        breakdown = drive.energy_breakdown()
        families = breakdown.as_dict()
        total = families.pop("total")
        assert drive.energy() == breakdown.total == total
        assert total == math.fsum(families.values())
