"""Discrete-event simulation kernel (AccuSim substitute).

Exports the heap :class:`Simulator`, the process/event primitives and the
:class:`StateTimeline` tracer used for power/idle accounting.
"""

from .engine import SimProcess, Simulator
from .events import AllOf, AnyOf, Event, Signal, Timeout
from .trace import Interval, StateTimeline

__all__ = [
    "Simulator",
    "SimProcess",
    "Event",
    "Timeout",
    "Signal",
    "AllOf",
    "AnyOf",
    "Interval",
    "StateTimeline",
]
