"""Power accounting for disk drives.

Maps every state label a :class:`~repro.disk.drive.Drive` can enter to a
power draw (watts) according to its :class:`~repro.disk.specs.DiskSpec`.
Timelines are integrated into per-family joules in one place,
:func:`repro.metrics.energy.breakdown_until`.  This is the "DiskSim
augmented with detailed power models" half of the paper's methodology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import states as st
from .specs import DiskSpec

__all__ = [
    "DiskPowerModel",
    "EnergyBreakdown",
    "reachable_power_states",
    "power_bounds",
    "rest_power_ceiling",
    "serve_power_bounds",
    "burst_power_ceiling",
]

RPM_UP = "rpm_up"
RPM_DOWN = "rpm_down"


@dataclass
class EnergyBreakdown:
    """Joules spent per state family for one disk (or summed over disks)."""

    active: float = 0.0
    seek: float = 0.0
    idle: float = 0.0
    standby: float = 0.0
    spin_up: float = 0.0
    spin_down: float = 0.0
    rpm_change: float = 0.0

    @property
    def total(self) -> float:
        """Exact (correctly rounded) sum of the family buckets.

        ``math.fsum`` makes the value independent of summation order, so
        any consumer that ``fsum``\\ s the per-family numbers — in
        whatever order a JSON snapshot hands them back — reproduces this
        total bit for bit.
        """
        return math.fsum(
            (
                self.active,
                self.seek,
                self.idle,
                self.standby,
                self.spin_up,
                self.spin_down,
                self.rpm_change,
            )
        )

    def add(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        """In-place accumulate another breakdown; returns self."""
        self.active += other.active
        self.seek += other.seek
        self.idle += other.idle
        self.standby += other.standby
        self.spin_up += other.spin_up
        self.spin_down += other.spin_down
        self.rpm_change += other.rpm_change
        return self

    def as_dict(self) -> dict[str, float]:
        return {
            "active": self.active,
            "seek": self.seek,
            "idle": self.idle,
            "standby": self.standby,
            "spin_up": self.spin_up,
            "spin_down": self.spin_down,
            "rpm_change": self.rpm_change,
            "total": self.total,
        }


# ----------------------------------------------------------------------
# Reachable-state power bounds (shared with the static analyzer)
# ----------------------------------------------------------------------
# The static energy analyzer (repro.analysis.energy) needs certified
# per-policy power floors and ceilings.  Rather than re-deriving watts
# from the spec — which would duplicate the physics and drift — the
# bounds below enumerate the exact state labels a Drive can enter under a
# policy's declared capabilities (PowerPolicy.can_spin_down / can_ramp)
# and take min/max of DiskPowerModel.power_of over them.  One definition
# of the physics, two consumers.


def reachable_power_states(
    spec: DiskSpec, can_spin_down: bool, can_ramp: bool
) -> dict[str, list[str]]:
    """State labels a drive can occupy, grouped by role.

    ``rest``  — not serving, drawing at most idle-class power
    (idle at any reachable RPM, standby, spin-down, down-ramps);
    ``serve`` — seeking or transferring at any reachable RPM;
    ``burst`` — transients that can exceed idle power (spin-up,
    up-ramps).  A policy without the matching capability contributes no
    standby/spin/ramp states, which is what makes the bounds per-policy.
    """
    rpms = list(spec.rpm_levels) if can_ramp else [spec.max_rpm]
    rest = [st.idle_at(rpm) for rpm in rpms]
    serve = [
        label
        for rpm in rpms
        for label in (
            st.active_at(rpm),
            st.active_at(rpm, write=True),
            st.seek_at(rpm),
        )
    ]
    burst: list[str] = []
    if can_spin_down:
        rest += [st.STANDBY, st.SPIN_DOWN]
        burst.append(st.SPIN_UP)
    if can_ramp:
        # A ramp passes through every intermediate level; rpm_down coasts
        # (idle-class), rpm_up needs torque above idle (burst-class).
        rest += [f"{RPM_DOWN}@{rpm}" for rpm in rpms]
        burst += [f"{RPM_UP}@{rpm}" for rpm in rpms]
    return {"rest": rest, "serve": serve, "burst": burst}


def power_bounds(
    spec: DiskSpec, can_spin_down: bool, can_ramp: bool
) -> tuple[float, float]:
    """(floor, ceiling) watts over *every* reachable state."""
    model = DiskPowerModel(spec)
    groups = reachable_power_states(spec, can_spin_down, can_ramp)
    watts = [
        model.power_of(label) for labels in groups.values() for label in labels
    ]
    return min(watts), max(watts)


def rest_power_ceiling(
    spec: DiskSpec, can_spin_down: bool, can_ramp: bool
) -> float:
    """Max watts over the non-serving, non-burst states."""
    model = DiskPowerModel(spec)
    groups = reachable_power_states(spec, can_spin_down, can_ramp)
    return max(model.power_of(label) for label in groups["rest"])


def serve_power_bounds(
    spec: DiskSpec, can_spin_down: bool, can_ramp: bool
) -> tuple[float, float]:
    """(floor, ceiling) watts over the serving (seek/transfer) states."""
    model = DiskPowerModel(spec)
    groups = reachable_power_states(spec, can_spin_down, can_ramp)
    watts = [model.power_of(label) for label in groups["serve"]]
    return min(watts), max(watts)


def burst_power_ceiling(
    spec: DiskSpec, can_spin_down: bool, can_ramp: bool
) -> float:
    """Max watts over the burst transients (spin-up, up-ramps); falls back
    to the rest ceiling when the policy has no burst states."""
    model = DiskPowerModel(spec)
    groups = reachable_power_states(spec, can_spin_down, can_ramp)
    if not groups["burst"]:
        return rest_power_ceiling(spec, can_spin_down, can_ramp)
    return max(model.power_of(label) for label in groups["burst"])


class DiskPowerModel:
    """State-label → watts mapping for one :class:`DiskSpec`."""

    def __init__(self, spec: DiskSpec):
        self.spec = spec
        self._watts: dict[str, float] = {}

    def power_of(self, state: str) -> float:
        """Instantaneous power draw in ``state`` (memoised per label)."""
        watts = self._watts.get(state)
        if watts is None:
            watts = self._watts[state] = self._power_of(state)
        return watts

    def _power_of(self, state: str) -> float:
        spec = self.spec
        base = st.base_state(state)
        rpm = st.parse_rpm(state, spec.max_rpm)
        if base == st.IDLE:
            return spec.idle_power_at(rpm)
        if base in (st.ACTIVE_READ, st.ACTIVE_WRITE):
            return spec.active_power_at(rpm)
        if base == st.SEEK:
            return spec.seek_power_at(rpm)
        if base == st.STANDBY:
            return spec.standby_power
        if base == st.SPIN_UP:
            return spec.spin_up_power
        if base == st.SPIN_DOWN:
            return spec.spin_down_power
        if base == RPM_UP:
            # Accelerating one step toward `rpm`.
            return spec.rpm_change_power(rpm - spec.rpm_step, rpm)
        if base == RPM_DOWN:
            # Coasting down through `rpm`.
            return spec.rpm_change_power(rpm + spec.rpm_step, rpm)
        raise ValueError(f"unknown disk state {state!r}")
