"""Spin-down power-management policies (paper §II, Figure 2).

*Simple*: after ``timeout`` seconds of continuous idleness the disk spins
down; the next request forces a spin-up (its latency is fully exposed).

*Prediction Based*: on entering idleness, predict the idle duration from
history.  If the prediction clears the energy break-even point, spin down
immediately; also arm a wake-up timer at ``prediction − spin_up_time`` so
the disk is (ideally) back at speed when the next request lands, hiding the
spin-up latency.
"""

from __future__ import annotations

from .policy import PowerPolicy
from .predictor import PredictivePolicy

__all__ = ["SimpleSpinDown", "PredictionSpinDown"]


class SimpleSpinDown(PowerPolicy):
    """Fixed-timeout spin-down (Figure 2(a)/(b))."""

    name = "simple"
    can_spin_down = True

    def __init__(self, timeout: float = 0.050):
        """``timeout`` is the paper's *x* msec idleness threshold
        (50 ms by default, per §V-A)."""
        super().__init__()
        if not timeout >= 0:
            raise ValueError(f"timeout must be non-negative: {timeout}")
        self.timeout = timeout

    def on_idle_start(self, now: float) -> None:
        self._arm_timer(self.timeout, self._timeout_fired)

    def _timeout_fired(self) -> None:
        self._timer = None
        if self.drive.is_idle:
            self.drive.spin_down()

    def on_request_arrival(self, now: float) -> None:
        self._cancel_timer()
        # The drive wakes itself up when a request hits standby.


class PredictionSpinDown(PredictivePolicy):
    """Predictive spin-down with ahead-of-time wake-up."""

    name = "prediction"
    can_spin_down = True

    def __init__(
        self,
        breakeven_margin: float = 1.0,
        fallback_factor: float = 0.6,
    ):
        """``breakeven_margin`` scales the spec's break-even idle length;
        values above 1 make the policy more conservative.
        ``fallback_factor`` arms a safety-net timeout at that multiple of
        the break-even length: an idle period the history failed to
        predict (the first gap of a new program phase) still transitions
        to standby once it has provably outlived any possible
        misprediction cost.  Set to 0 to disable the fallback (pure paper
        §II behaviour)."""
        super().__init__()
        if not breakeven_margin > 0:
            raise ValueError(f"breakeven_margin must be positive: {breakeven_margin}")
        if not fallback_factor >= 0:
            raise ValueError(f"fallback_factor must be non-negative: {fallback_factor}")
        self.breakeven_margin = breakeven_margin
        self.fallback_factor = fallback_factor
        self.predictions = 0
        self.spin_down_decisions = 0
        self.fallback_spin_downs = 0

    def _decide_idle(self, now: float, elapsed: float) -> None:
        predicted = self.predictor.predict()
        self.predictions += 1
        threshold = self.drive.spec.breakeven_idle_seconds() * self.breakeven_margin
        if predicted >= threshold:
            # Wake on the conservative upper estimate: waking early
            # burns the remaining standby saving at full idle power,
            # waking late costs only the usual spin-up exposure.
            if self._spin_down_until(self.predictor.predict_upper(), elapsed):
                self.spin_down_decisions += 1
        elif self.fallback_factor > 0:
            fallback = (
                self.drive.spec.breakeven_idle_seconds() * self.fallback_factor
            )
            self._arm_timer(max(fallback - elapsed, 0.0), self._fallback_fired)

    def _fallback_fired(self) -> None:
        self._timer = None
        if self.drive.is_idle and not self.drive.is_standby:
            if self.drive.spin_down():
                self.fallback_spin_downs += 1
                # Unknown end: wake on request, like the simple policy.
