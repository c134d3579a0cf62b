"""Event primitives for the discrete-event simulation kernel.

The kernel is deliberately small: a scheduled :class:`Event` is a callback
bound to a simulation time, and a :class:`Signal` is a one-shot waitable
condition that simulation processes (generators) can block on.  This is the
minimal vocabulary needed to co-simulate client processes, runtime scheduler
threads, network transfers and disk service loops.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

__all__ = ["Event", "Timeout", "Signal", "AllOf", "AnyOf"]

_event_ids = itertools.count()


class Event:
    """A callback scheduled at an absolute simulation time.

    Instances are created by :meth:`repro.sim.engine.Simulator.schedule`;
    user code normally only keeps them around to :meth:`cancel` them.

    The owning simulator stores events inside ``(time, seq, Event)`` heap
    entries, so ordering is resolved by C-level tuple comparison on the
    ``(time, seq)`` prefix and :meth:`__lt__` stays off the hot path (it is
    kept for explicit comparisons in user code and tests).
    """

    __slots__ = ("time", "seq", "callback", "args", "canceled", "sim")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple,
        sim: Optional[Any] = None,
    ):
        self.time = time
        self.seq = next(_event_ids)
        self.callback = callback
        self.args = args
        self.canceled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent).

        Canceling notifies the owning simulator so its live-event counter
        stays exact and stale heap entries can be compacted lazily.
        """
        if not self.canceled:
            self.canceled = True
            if self.sim is not None:
                self.sim._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = "canceled" if self.canceled else "pending"
        return f"Event(t={self.time:.6f}, {status}, cb={self.callback!r})"


class Timeout:
    """Yielded by a process generator to sleep for ``delay`` seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


_NO_WAITERS: tuple = ()


class Signal:
    """A one-shot waitable condition carrying an optional value.

    Processes yield a Signal to block until some other actor calls
    :meth:`fire`.  Multiple processes may wait on the same signal; all are
    resumed (in wait order) when it fires.  Firing twice is an error unless
    the signal was constructed with ``restartable=True``, in which case
    :meth:`reset` re-arms it.

    The waiter list is allocated lazily: most signals (per-slot clock
    advances, uncontended completions) fire with no waiter ever attached,
    so eagerly building a list per signal is pure allocator pressure on
    the hot path.
    """

    __slots__ = ("name", "fired", "value", "_waiters", "restartable")

    def __init__(self, name: str = "", restartable: bool = False):
        self.name = name
        self.fired = False
        self.value: Any = None
        self.restartable = restartable
        self._waiters: Optional[list[Callable[[Any], None]]] = None

    def add_waiter(self, resume: Callable[[Any], None]) -> None:
        """Register a resume callback (kernel use)."""
        waiters = self._waiters
        if waiters is None:
            self._waiters = [resume]
        else:
            waiters.append(resume)

    def fire(self, value: Any = None) -> "list[Callable[[Any], None]] | tuple":
        """Mark the signal fired and return the callbacks to resume.

        The engine (not the caller) invokes the returned callbacks so that
        resumption happens under the simulation clock.
        """
        if self.fired and not self.restartable:
            raise RuntimeError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.value = value
        waiters = self._waiters
        if waiters is None:
            return _NO_WAITERS
        self._waiters = None
        return waiters

    def reset(self) -> None:
        """Re-arm a restartable signal."""
        if not self.restartable:
            raise RuntimeError(f"signal {self.name!r} is not restartable")
        self.fired = False
        self.value = None

    @property
    def waiter_count(self) -> int:
        waiters = self._waiters
        return 0 if waiters is None else len(waiters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else f"pending({self.waiter_count} waiters)"
        return f"Signal({self.name!r}, {state})"


class AllOf:
    """Yielded by a process to wait until *all* given signals have fired."""

    __slots__ = ("signals",)

    def __init__(self, signals: list[Signal]):
        self.signals = list(signals)


class AnyOf:
    """Yielded by a process to wait until *any* of the given signals fires.

    The process resumes with the first fired signal as value.
    """

    __slots__ = ("signals",)

    def __init__(self, signals: list[Signal]):
        self.signals = list(signals)
        if not self.signals:
            raise ValueError("AnyOf requires at least one signal")

