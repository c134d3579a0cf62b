"""Energy metrics over finalized drive timelines.

The paper reports *normalized energy consumption* (policy ÷ default
scheme) and *reduction in energy consumption* (1 − normalized).  Metrics
here integrate over a clipped horizon — the application's execution window
— so trailing drain activity doesn't skew policy comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..disk.drive import Drive
from ..disk.power import EnergyBreakdown
from ..disk import states as st
from ..sim.trace import Interval

__all__ = [
    "energy_until",
    "breakdown_until",
    "fleet_energy",
    "idle_periods_until",
    "residency_until",
    "transition_counts_until",
    "EnergyComparison",
]


def _clipped_intervals(drive: Drive, horizon: float):
    for iv in drive.timeline.intervals():
        if iv.start >= horizon:
            break
        end = min(iv.end, horizon)
        if end > iv.start:
            yield Interval(iv.start, end, iv.state)


def energy_until(drive: Drive, horizon: float) -> float:
    """Joules consumed by one drive in ``[0, horizon]``.

    Defined as the total of :func:`breakdown_until` so the two can never
    disagree — summing the per-family buckets (rather than re-integrating
    interval by interval) makes ``sum(breakdown) == energy_until`` exact,
    not approximate.
    """
    return breakdown_until(drive, horizon).total


#: Position of each base state in :class:`EnergyBreakdown`'s field order;
#: anything else (both ramp directions) lands in ``rpm_change``.
_BUCKET = {
    st.ACTIVE_READ: 0,
    st.ACTIVE_WRITE: 0,
    st.SEEK: 1,
    st.IDLE: 2,
    st.STANDBY: 3,
    st.SPIN_UP: 4,
    st.SPIN_DOWN: 5,
}
_RPM_CHANGE_BUCKET = 6


def breakdown_until(drive: Drive, horizon: float) -> EnergyBreakdown:
    """Per-state-family joules in ``[0, horizon]``.

    Uses the drive's *attached* power model — a drive carrying a
    customized model must break down under the same wattages it
    integrates under, or per-state numbers silently disagree with
    :func:`energy_until`.  This is the one timeline integrator: each
    family accumulates its intervals' joules in timeline order.
    """
    power_of = drive.power_model.power_of
    buckets = [0.0] * 7
    for iv in drive.timeline.intervals():
        start = iv.start
        if start >= horizon:
            break
        end = min(iv.end, horizon)
        if end > start:
            state = iv.state
            joules = power_of(state) * (end - start)
            buckets[
                _BUCKET.get(st.base_state(state), _RPM_CHANGE_BUCKET)
            ] += joules
    return EnergyBreakdown(*buckets)


def _family(state: str) -> str:
    """Base state family, with both ramp directions folded into
    ``rpm_change`` so residency keys match the energy-breakdown keys."""
    base = st.base_state(state)
    if base in ("rpm_up", "rpm_down"):
        return st.RPM_CHANGE
    return base


def residency_until(drive: Drive, horizon: float) -> dict[str, float]:
    """Seconds spent per base state family in ``[0, horizon]``.

    The continuous-observation quantity the observability layer reports:
    how long the drive sat in each of idle/standby/seek/… regardless of
    the RPM level encoded in the state label.
    """
    out: dict[str, float] = {}
    for iv in _clipped_intervals(drive, horizon):
        family = _family(iv.state)
        out[family] = out.get(family, 0.0) + iv.duration
    return out


def transition_counts_until(drive: Drive, horizon: float) -> dict[str, int]:
    """How many times the drive *entered* each base state family in
    ``[0, horizon]`` (consecutive same-family intervals count once)."""
    out: dict[str, int] = {}
    prev: str | None = None
    for iv in _clipped_intervals(drive, horizon):
        family = _family(iv.state)
        if family != prev:
            out[family] = out.get(family, 0) + 1
            prev = family
    return out


def fleet_energy(drives: list[Drive], horizon: float) -> float:
    """Total joules over a set of drives in ``[0, horizon]``."""
    return sum(energy_until(d, horizon) for d in drives)


def idle_periods_until(drive: Drive, horizon: float) -> list[float]:
    """Idle-period lengths clipped to the execution window."""
    out = []
    for iv in drive.timeline.merged_periods(st.is_idle_family):
        if iv.start >= horizon:
            break
        end = min(iv.end, horizon)
        if end > iv.start:
            out.append(end - iv.start)
    return out


@dataclass(frozen=True)
class EnergyComparison:
    """One policy's energy versus the default scheme."""

    policy: str
    energy_joules: float
    baseline_joules: float

    @property
    def normalized(self) -> float:
        """Figure 12(c)/(d): policy energy ÷ default energy."""
        if self.baseline_joules == 0:
            return 1.0
        return self.energy_joules / self.baseline_joules

    @property
    def reduction(self) -> float:
        """Figures 13(c)/(d), 14(a): 1 − normalized."""
        return 1.0 - self.normalized
