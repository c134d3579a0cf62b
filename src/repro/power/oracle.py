"""Oracle power policies — upper bounds used in ablation studies.

These are not in the paper's evaluation but bound what any online policy
could achieve: :class:`OracleSpinDown` knows each idle period's true length
in advance (supplied by a prior identical run under the default policy)
and spins down only when it pays off, waking exactly on time.
"""

from __future__ import annotations

from bisect import bisect_left

from .policy import PowerPolicy

__all__ = ["OracleSpinDown"]


class OracleSpinDown(PowerPolicy):
    """Perfect-knowledge spin-down policy.

    ``idle_intervals`` is the chronological list of ``(start, length)``
    idle periods this drive experienced in a previous run of the same
    workload under the default policy (see
    :meth:`repro.disk.drive.Drive.idle_period_intervals`).  Because the
    oracle hides every spin-up behind a perfectly timed wake, the replay
    timeline stays aligned with the recorded one; lookups match by start
    time with a tolerance so transient drift self-corrects.
    """

    name = "oracle"

    def __init__(
        self, idle_intervals: list[tuple[float, float]], tolerance: float = 2.0
    ):
        super().__init__()
        self._intervals = sorted(idle_intervals)
        self._starts = [s for s, _l in self._intervals]
        if not tolerance > 0:
            raise ValueError(f"tolerance must be positive: {tolerance}")
        self.tolerance = tolerance
        self.correct_decisions = 0
        self.unmatched_idles = 0

    def _true_idle_length(self, now: float) -> float:
        """The recorded idle period starting nearest ``now``, or 0."""
        if not self._starts:
            self.unmatched_idles += 1
            return 0.0
        idx = bisect_left(self._starts, now)
        best = None
        for candidate in (idx - 1, idx):
            if 0 <= candidate < len(self._starts):
                dist = abs(self._starts[candidate] - now)
                if best is None or dist < best[0]:
                    best = (dist, candidate)
        if best is None or best[0] > self.tolerance:
            self.unmatched_idles += 1
            return 0.0
        return self._intervals[best[1]][1]

    def on_idle_start(self, now: float) -> None:
        true_idle = self._true_idle_length(now)
        spec = self.drive.spec
        if true_idle >= spec.breakeven_idle_seconds():
            if self.drive.spin_down():
                self.correct_decisions += 1
                wake_delay = max(
                    true_idle - spec.spin_up_time, spec.spin_down_time
                )
                self._arm_timer(wake_delay, self._wake)

    def _wake(self) -> None:
        self._timer = None
        if self.drive.is_standby and self.drive.is_idle:
            self.drive.spin_up()

    def on_request_arrival(self, now: float) -> None:
        self._cancel_timer()
