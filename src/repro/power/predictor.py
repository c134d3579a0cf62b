"""Idle-period length prediction.

The paper's *Prediction Based* spin-down and *History Based* multi-speed
policies both assume "successive idle periods exhibit similar behavior as
far as their duration is concerned" (§II).  :class:`IdlePredictor`
implements that assumption as an exponentially weighted moving average over
observed idle lengths, with the degenerate ``history=1`` case reducing to
last-value prediction.

:class:`PredictivePolicy` is the base of every policy built on that
assumption — the two paper policies and the online ``forecast``,
``credit`` and ``hybrid`` — and owns the bookkeeping they share: the
predictor, the detection dwell, the gap observations and the
ahead-of-time wake-ups.
"""

from __future__ import annotations

from collections import deque

from .policy import PowerPolicy

__all__ = ["IdlePredictor", "PredictivePolicy"]


class IdlePredictor:
    """EWMA / windowed-mean predictor of the next idle period's length."""

    def __init__(self, alpha: float = 0.7, window: int = 8, initial: float = 0.0):
        """``alpha`` weights the newest observation; ``window`` bounds the
        windowed-mean fallback used before the EWMA warms up; ``initial``
        is the prediction before any observation."""
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1]: {alpha}")
        if window < 1:
            raise ValueError(f"window must be >= 1: {window}")
        self.alpha = alpha
        self.window = window
        self._ewma = initial
        self._seen = 0
        self._recent: deque[float] = deque(maxlen=window)

    def observe(self, idle_length: float) -> None:
        """Record a completed idle period of ``idle_length`` seconds."""
        if idle_length < 0:
            raise ValueError(f"negative idle length: {idle_length}")
        self._recent.append(idle_length)
        if self._seen == 0:
            self._ewma = idle_length
        else:
            self._ewma = self.alpha * idle_length + (1 - self.alpha) * self._ewma
        self._seen += 1

    def predict(self) -> float:
        """Predicted length (seconds) of the idle period starting now.

        The EWMA is clamped into ``[min(recent), max(recent)]``: the
        forecast never leaves the envelope of recent evidence.  An
        unclamped full-history EWMA can keep the ghost of a single long
        gap alive for arbitrarily many short observations (or vice
        versa), predicting a value *no recent observation supports* —
        and it would also break the ``predict_upper() >= predict()``
        contract policies rely on for ahead-of-time wake-up timers.
        """
        if not self._recent:
            return self._ewma
        return min(max(self._ewma, min(self._recent)), max(self._recent))

    def predict_upper(self) -> float:
        """Conservative upper estimate: the longest idle period in the
        recent window.  Policies use it for ahead-of-time wake-up timers,
        where underprediction (waking too early) wastes the whole saving
        but overprediction merely exposes the normal wake-on-request
        latency."""
        if not self._recent:
            return self._ewma
        return max(self._recent)

    @property
    def observations(self) -> int:
        return self._seen

    @property
    def recent(self) -> tuple[float, ...]:
        """The last ``window`` observations, oldest first."""
        return tuple(self._recent)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IdlePredictor(ewma={self._ewma:.4f}, n={self._seen})"


class PredictivePolicy(PowerPolicy):
    """Base of the policies that act on a predicted idle-period length.

    On idle start the policy arms a detection dwell; if the disk is still
    idle (and not in standby) when it fires, :meth:`_decide_idle` makes
    the subclass's decision.  Every arrival, and the end of the
    simulation, feeds the finished gap to :attr:`predictor` unless it is
    shorter than :data:`MIN_OBSERVE`.  Subclasses keep only their own
    decision rule and state.
    """

    #: Gaps shorter than this (seconds) are service-continuation noise,
    #: not idle *periods*: micro-gaps between queued bursts would
    #: otherwise poison the predictor.
    MIN_OBSERVE = 0.2
    #: Idleness-detection dwell (seconds) before the policy acts.  With
    #: multi-second spin-down and RPM transitions, committing the spindle
    #: during a queue-drain micro-gap would stall the next request behind
    #: the transition; this plays the role of the paper's 50 ms
    #: thresholds on its much faster substrate.
    DECISION_DELAY = 0.3

    def __init__(self) -> None:
        super().__init__()
        self.predictor = IdlePredictor()
        self._idle_since: float | None = None

    def on_idle_start(self, now: float) -> None:
        self._idle_since = now
        self._arm_timer(self.DECISION_DELAY, self._decide)

    def _decide(self) -> None:
        self._timer = None
        if not self.drive.is_idle or self.drive.is_standby:
            return
        now = self.sim.now
        # Timers are relative to the *idle start*, not to this (dwelled)
        # decision point — otherwise every wake-up lands late by the
        # dwell and the error compounds across periodic idle trains.
        self._decide_idle(now, now - (self._idle_since or now))

    def _decide_idle(self, now: float, elapsed: float) -> None:
        """The idleness outlived the dwell: act on it.  ``elapsed`` is
        the time since the idle period began."""
        raise NotImplementedError

    def _observe_gap(self, now: float) -> None:
        """Close the current idle period at ``now`` and record it."""
        if self._idle_since is not None:
            length = now - self._idle_since
            if length >= self.MIN_OBSERVE:
                self.predictor.observe(length)
            self._idle_since = None

    def on_request_arrival(self, now: float) -> None:
        self._cancel_timer()
        self._observe_gap(now)

    def on_simulation_end(self, now: float) -> None:
        self._observe_gap(now)
        super().on_simulation_end(now)

    # -- ahead-of-time wake-ups ------------------------------------------
    def _spin_down_until(self, upper: float, elapsed: float) -> bool:
        """Spin down now and arm a spin-up that finishes ``upper``
        seconds after the idle start (but never before the spin-down
        itself does).  Returns whether the disk accepted the spin-down."""
        if not self.drive.spin_down():
            return False
        spec = self.drive.spec
        wake_delay = max(
            upper - spec.spin_up_time - elapsed, spec.spin_down_time
        )
        self._arm_timer(wake_delay, self._proactive_wake)
        return True

    def _proactive_wake(self) -> None:
        self._timer = None
        if self.drive.is_standby and self.drive.is_idle:
            self.drive.spin_up()

    def _speed_up_at(self, upper: float, ramp_back: float, elapsed: float) -> None:
        """Arm a ramp back to full speed that finishes ``upper`` seconds
        after the idle start; ``ramp_back`` is the ramp's duration."""
        wake_delay = max(upper - ramp_back - elapsed, 0.0)
        self._arm_timer(wake_delay, self._proactive_speed_up)

    def _proactive_speed_up(self) -> None:
        self._timer = None
        if self.drive.is_idle and not self.drive.is_standby:
            self.drive.request_rpm(self.drive.spec.max_rpm)
