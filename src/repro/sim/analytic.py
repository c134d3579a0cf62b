"""Analytic hybrid kernel — closed-form affine phases over the heap DES.

The dependence oracle (:mod:`repro.ir.dependence`) can prove, for affine
programs, which slot ranges of each client perform no I/O at all.  During
such a *compute phase* the client's only simulated activity is a chain of
per-slot ``Timeout`` events whose times are a chain of float additions —
a timeline that can be solved in closed form.  This kernel advertises
``supports_phase_collapse``; eligible clients then replace each phase's
per-slot events with a single :class:`~repro.sim.events.ComputePhase`
carrying the *identical chained sum* as an absolute target time, replay
the per-slot bookkeeping with the identical arithmetic, and the kernel
delivers the jump through ``schedule_at_exact`` — bit-identical to the
full DES by construction.

Everything that is not a provable compute phase — I/O slots, scheme-on
runs (scheduler threads observe the local clocks mid-phase), fault
windows (the injector perturbs timing), non-affine programs, and every
phase boundary — runs as full discrete-event simulation on the inherited
heap queue.  Eligibility is decided by the session, not here: the
kernel only advertises the capability and counts what was collapsed.

The disk side of a collapsed phase needs no special handling — drives
receive no new requests from a phase-collapsed client, and their policy
machinery (spin-down timers, ramp steps) runs on ordinary DES events
either way — but the closed-form *bounds* on what a disk can spend during
a phase window are exported here (straight from the pure functions in
:mod:`repro.disk.power`) so tests can certify collapsed windows
independently of the DES.
"""

from __future__ import annotations

from typing import Optional

from ..obs.base import Observability
from .engine import Simulator
from .events import ComputePhase

__all__ = ["AnalyticSimulator", "phase_energy_bounds"]


def phase_energy_bounds(
    spec, can_spin_down: bool, can_ramp: bool, duration: float
) -> tuple[float, float]:
    """Certified [lo, hi] joules one drive can spend in a request-free
    window of ``duration`` seconds.

    Reuses the pure bound functions of :mod:`repro.disk.power`: with no
    requests arriving the drive can at worst sit at the rest-power
    ceiling plus one burst transient (a spin-up/ramp completing inside
    the window), and at best sit at the global power floor throughout.
    """
    from ..disk.power import burst_power_ceiling, power_bounds, rest_power_ceiling

    if duration < 0:
        raise ValueError(f"window duration must be >= 0: {duration}")
    floor, _ = power_bounds(spec, can_spin_down, can_ramp)
    rest_ceiling = rest_power_ceiling(spec, can_spin_down, can_ramp)
    burst_ceiling = burst_power_ceiling(spec, can_spin_down, can_ramp)
    burst_window = min(duration, spec.spin_up_time)
    hi = rest_ceiling * (duration - burst_window) + burst_ceiling * burst_window
    return floor * duration, hi


class AnalyticSimulator(Simulator):
    """Heap kernel that accepts collapsed affine phases."""

    kernel_name = "analytic"
    supports_phase_collapse = True

    __slots__ = ("phases_collapsed", "slots_collapsed")

    def __init__(self, obs: Optional[Observability] = None) -> None:
        super().__init__(obs=obs)
        #: Number of ComputePhase jumps executed.
        self.phases_collapsed = 0
        #: Compute slots those jumps covered (each would have cost the
        #: DES up to one Timeout event; the events/sec accounting uses
        #: this to compare kernels on equal work).
        self.slots_collapsed = 0

    def _note_phase(self, phase: ComputePhase) -> None:
        self.phases_collapsed += 1
        self.slots_collapsed += phase.n_slots

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AnalyticSimulator(now={self.now:.6f}, "
            f"pending={self.pending_events}, "
            f"collapsed={self.slots_collapsed} slots "
            f"in {self.phases_collapsed} phases)"
        )
