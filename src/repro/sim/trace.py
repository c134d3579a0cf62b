"""State-timeline tracing used for energy and idle-period accounting.

A :class:`StateTimeline` records ``(start, end, state)`` intervals for one
component (e.g. one disk).  Power policies and the disk model push state
changes into it; the metrics layer integrates power over the intervals and
extracts idle-period length distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

__all__ = ["Interval", "StateTimeline"]


@dataclass(frozen=True, slots=True)
class Interval:
    """A half-open time interval ``[start, end)`` spent in ``state``."""

    start: float
    end: float
    state: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class StateTimeline:
    """Append-only record of the states one component moved through."""

    __slots__ = ("name", "_intervals", "_current_state", "_current_since")

    def __init__(self, name: str, initial_state: str, start_time: float = 0.0):
        self.name = name
        self._intervals: list[Interval] = []
        self._current_state = initial_state
        self._current_since = start_time

    @property
    def current_state(self) -> str:
        return self._current_state

    @property
    def current_since(self) -> float:
        return self._current_since

    def transition(self, now: float, new_state: str) -> None:
        """Close the current interval at ``now`` and enter ``new_state``."""
        since = self._current_since
        if now < since - 1e-12:
            raise ValueError(
                f"{self.name}: transition at {now} precedes interval start "
                f"{since}"
            )
        if new_state == self._current_state:
            return
        if now > since:
            self._intervals.append(Interval(since, now, self._current_state))
        self._current_state = new_state
        self._current_since = now

    def finalize(self, now: float) -> None:
        """Close the open interval at simulation end."""
        if now > self._current_since:
            self._intervals.append(
                Interval(self._current_since, now, self._current_state)
            )
            self._current_since = now

    def intervals(self) -> Iterator[Interval]:
        """All closed intervals in chronological order."""
        return iter(self._intervals)

    def total_time(self, predicate: Callable[[str], bool]) -> float:
        """Total duration of intervals whose state satisfies ``predicate``."""
        return sum(iv.duration for iv in self._intervals if predicate(iv.state))

    def time_in_state(self, state: str) -> float:
        return self.total_time(lambda s: s == state)

    def merged_periods(self, predicate: Callable[[str], bool]) -> list[Interval]:
        """Maximal runs of consecutive intervals whose states satisfy
        ``predicate`` (e.g. all idle-family states), merged into single
        intervals.  Used to extract idle *periods* that span several
        low-power states."""
        periods: list[Interval] = []
        run_start: Optional[float] = None
        run_end: Optional[float] = None
        for iv in self._intervals:
            if predicate(iv.state):
                if run_start is None:
                    run_start, run_end = iv.start, iv.end
                elif abs(iv.start - run_end) < 1e-9:
                    run_end = iv.end
                else:
                    periods.append(Interval(run_start, run_end, "merged"))
                    run_start, run_end = iv.start, iv.end
            else:
                if run_start is not None:
                    periods.append(Interval(run_start, run_end, "merged"))
                    run_start = run_end = None
        if run_start is not None:
            periods.append(Interval(run_start, run_end, "merged"))
        return periods

    def __len__(self) -> int:
        return len(self._intervals)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StateTimeline({self.name!r}, {len(self._intervals)} intervals, "
            f"current={self._current_state!r})"
        )
