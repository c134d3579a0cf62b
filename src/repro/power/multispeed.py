"""Multi-speed (DRPM) power-management policies (paper §II, Figure 3).

*History Based*: on entering idleness, predict the idle duration and jump
straight to the slowest RPM whose round-trip ramp fits inside the predicted
idle window; arm a timer to ramp back to full speed ahead of the predicted
idle end.  A wrong prediction costs either energy (too fast a speed) or
performance (request lands while slow / mid-ramp).

*Staggered*: on entering idleness drop one level to the second-fastest
speed, then one further level for every additional ``step_timeout`` of
continued idleness, walking down the ladder (Figure 3(b)).  The next
request retargets full speed.
"""

from __future__ import annotations

from .policy import PowerPolicy
from .predictor import PredictivePolicy

__all__ = ["HistoryBasedMultiSpeed", "StaggeredMultiSpeed", "speed_for_idle"]


def speed_for_idle(spec, predicted_idle: float, utilization_bound: float = 0.5) -> int:
    """Pick the RPM level a history-based policy should drop to.

    Chooses the slowest level whose down-and-back-up ramp time occupies at
    most ``utilization_bound`` of the predicted idle window — i.e. the
    transition overhead must stay a bounded fraction of the idleness, which
    is how the paper bounds the performance impact ("switches to RPM_i,
    which saves maximum energy while keeping the performance impact
    bounded").  Returns the max RPM when no level qualifies.
    """
    if predicted_idle <= 0:
        return spec.max_rpm
    best = spec.max_rpm
    for rpm in spec.rpm_levels:  # fastest → slowest
        round_trip = 2.0 * spec.rpm_change_time(spec.max_rpm, rpm)
        if round_trip <= predicted_idle * utilization_bound:
            best = rpm  # keep walking: slower levels save more
    return best


class HistoryBasedMultiSpeed(PredictivePolicy):
    """Prediction-driven single jump to the best speed (Figure 3(a))."""

    name = "history"
    can_ramp = True

    def __init__(
        self,
        utilization_bound: float = 0.8,
        escalate_after: float = 2.0,
    ):
        """``utilization_bound`` is forwarded to :func:`speed_for_idle`.
        ``escalate_after`` is the safety net for gaps the history failed
        to anticipate: when the prediction said "too short to bother" but
        the disk is still idle after this many seconds, the policy starts
        stepping the speed down after all (with doubling re-check
        intervals).  0 disables escalation."""
        super().__init__()
        if not 0 < utilization_bound <= 1:
            raise ValueError(
                f"utilization_bound must be in (0, 1]: {utilization_bound}"
            )
        if not escalate_after >= 0:
            raise ValueError(f"escalate_after must be non-negative: {escalate_after}")
        self.utilization_bound = utilization_bound
        self.escalate_after = escalate_after
        self.speed_choices: list[int] = []
        self.escalations = 0

    def _decide_idle(self, now: float, elapsed: float) -> None:
        """Commit to a speed."""
        spec = self.drive.spec
        # Depth follows the *predicted* length (paper §II: "switches to
        # RPM_i" for the predicted idleness) — committing deeper than the
        # typical gap stalls the next burst behind multi-second ramp
        # steps.  Under-predicted long gaps are rescued by the escalation
        # timer below, not by speculative deep dives.
        predicted = self.predictor.predict()
        rpm = speed_for_idle(spec, predicted, self.utilization_bound)
        self.speed_choices.append(rpm)
        # Always (re)set the target: the last request's arrival left the
        # drive targeting max speed, and a stale max target would ramp the
        # spindle up pointlessly as soon as the restart grace expires.
        self.drive.request_rpm(rpm)
        if self._prediction_confident() and rpm != spec.max_rpm:
            # Ramp back up ahead of the predicted idle end to hide latency.
            # The timer uses the *upper* estimate: waking too early throws
            # away the remaining saving, while waking late just means the
            # request is served at a low speed (a bounded penalty).
            self._speed_up_at(
                self.predictor.predict_upper(),
                spec.rpm_change_time(rpm, spec.max_rpm),
                elapsed,
            )
        elif self.escalate_after > 0 and rpm > spec.min_rpm:
            # Unconfident prediction: whatever depth was chosen, keep
            # deepening if the gap outlives the estimate (runaway gaps
            # must not idle at a shallow speed forever).
            self._arm_escalation(self.escalate_after)

    def _arm_escalation(self, delay: float) -> None:
        self._arm_timer(delay, self._escalate, delay)

    def _escalate(self, last_delay: float) -> None:
        """The gap outlived the prediction: dive by elapsed idleness."""
        self._timer = None
        drive = self.drive
        if not drive.is_idle or drive.is_standby or self._idle_since is None:
            return
        self.escalations += 1
        elapsed = self.sim.now - self._idle_since
        rpm = speed_for_idle(drive.spec, 2.0 * elapsed, self.utilization_bound)
        if rpm < drive.target_rpm or (
            rpm < drive.current_rpm and drive.target_rpm == drive.current_rpm
        ):
            drive.request_rpm(rpm)
        if rpm > drive.spec.min_rpm:
            self._arm_escalation(last_delay * 2.0)

    def _prediction_confident(self) -> bool:
        """Arm the proactive wake-up only when recent idle periods agree
        with each other (a run of similar gaps).  When the history mixes
        short and long gaps, the upper estimate carries no information
        about *this* gap's end — waking on it would burn an arbitrarily
        long remainder at full idle power, the costliest failure mode a
        multi-speed disk has."""
        upper = self.predictor.predict_upper()
        if upper <= 0:
            return False
        return self.predictor.predict() >= 0.5 * upper

    def on_request_arrival(self, now: float) -> None:
        super().on_request_arrival(now)
        self.drive.request_rpm(self.drive.spec.max_rpm)


class StaggeredMultiSpeed(PowerPolicy):
    """Step-down-through-speeds policy (Figure 3(b))."""

    name = "staggered"
    can_ramp = True

    def __init__(self, step_timeout: float = 0.050):
        """``step_timeout`` is the paper's *x₁* msec dwell before dropping
        one more level (50 ms per §V-A)."""
        super().__init__()
        if not step_timeout >= 0:
            raise ValueError(f"step_timeout must be non-negative: {step_timeout}")
        self.step_timeout = step_timeout

    def _next_lower(self, rpm: int) -> int:
        levels = self.drive.spec.rpm_levels  # fastest → slowest
        for level in levels:
            if level < rpm:
                return level
        return rpm

    def on_idle_start(self, now: float) -> None:
        # Head for the second-fastest speed after one dwell — idleness is
        # "detected" once it has lasted the dwell, which keeps the policy
        # from churning the spindle on sub-dwell queue-drain gaps.
        self._arm_timer(self.step_timeout, self._dwell_expired)

    def on_ramp_complete(self, now: float) -> None:
        if self.drive.is_idle and self.drive.current_rpm > self.drive.spec.min_rpm:
            self._arm_timer(self.step_timeout, self._dwell_expired)

    def _dwell_expired(self) -> None:
        self._timer = None
        drive = self.drive
        if not drive.is_idle or drive.is_standby or drive.is_transitioning:
            return
        lower = self._next_lower(drive.current_rpm)
        if lower != drive.current_rpm:
            drive.request_rpm(lower)

    def on_request_arrival(self, now: float) -> None:
        self._cancel_timer()
        self.drive.request_rpm(self.drive.spec.max_rpm)
