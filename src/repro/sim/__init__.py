"""Discrete-event simulation kernel (AccuSim substitute).

Exports the pluggable kernels — the reference heap :class:`Simulator`
and the hybrid :class:`AnalyticSimulator` affine fast path — plus
process/event primitives and the :class:`StateTimeline` tracer used for
power/idle accounting.  Use :func:`make_kernel` to construct by registry
name.
"""

from .analytic import AnalyticSimulator, phase_energy_bounds
from .engine import SimProcess, Simulator
from .events import AllOf, AnyOf, ComputePhase, Event, Signal, Timeout
from .kernels import DEFAULT_KERNEL, KERNELS, kernel_names, make_kernel
from .trace import Interval, StateTimeline

__all__ = [
    "Simulator",
    "AnalyticSimulator",
    "SimProcess",
    "Event",
    "Timeout",
    "ComputePhase",
    "Signal",
    "AllOf",
    "AnyOf",
    "Interval",
    "StateTimeline",
    "KERNELS",
    "DEFAULT_KERNEL",
    "kernel_names",
    "make_kernel",
    "phase_energy_bounds",
]
