"""Online / adaptive power-management policies (beyond the paper).

The paper's framework is *static*: the compiler emits a scheduling table
and the four §II policies react to idleness with fixed rules.  This
module adds the online family the roadmap's scenario-diversity item asks
for, grounded in the online-approach literature (workload-forecasting
spin-down and credit-based DRPM speed selection) and in the repo's own
compiled schedules:

* :class:`ForecastSpindown` — extends the idle-length EWMA of
  :class:`~repro.power.predictor.IdlePredictor` with a *per-epoch demand
  forecast*: arrivals are folded into an epoch-rate EWMA, the implied
  mean inter-arrival gap is blended with the idle-length prediction, and
  the blend is compared against the spin-down break-even point;
* :class:`CreditMultiSpeed` — a credit-based DRPM speed selector: the
  policy accrues *performance credits* (seconds of allowed exposure) at
  a bounded fraction of elapsed time and spends them on RPM drops, where
  a drop's price is its worst-case ramp-back exposure.  Total
  performance impact is budgeted by construction instead of per-gap;
* :class:`HybridCompilerAssist` — consumes the compiler's scheduling
  table as *hints* (nominal per-node touch times from
  :mod:`repro.power.hints`), aligns them against observed arrivals with
  an offset/spread EWMA, and falls back to pure online prediction
  whenever observation diverges from the table — or when no table was
  compiled at all.

All three derive from :class:`~repro.power.predictor.PredictivePolicy`,
like the paper's two predictive policies.  They see only their drive's
notifications and timers, so runs replay bit-identically at any
``--jobs`` and the static analyzer bounds them soundly through the
same ``can_spin_down`` / ``can_ramp`` capability declarations as the
paper policies.
"""

from __future__ import annotations

from .multispeed import speed_for_idle
from .predictor import PredictivePolicy

__all__ = ["ForecastSpindown", "CreditMultiSpeed", "HybridCompilerAssist"]


class ForecastSpindown(PredictivePolicy):
    """Workload-forecasting spin-down (epoch demand × idle history)."""

    name = "forecast"
    can_spin_down = True

    def __init__(
        self,
        epoch: float = 30.0,
        demand_alpha: float = 0.5,
        demand_weight: float = 0.5,
    ):
        """``epoch`` is the demand-forecast bucket width (seconds):
        arrivals are counted per epoch and folded into an EWMA with
        weight ``demand_alpha``.  The forecast gap is the blend
        ``(1 − w)·idle_prediction + w·epoch/demand`` with
        ``w = demand_weight`` — a low forecast demand argues *for*
        spinning down even when the recent idle history alone is
        inconclusive, and a hot epoch vetoes a marginal spin-down."""
        super().__init__()
        if not epoch > 0:
            raise ValueError(f"epoch must be positive: {epoch}")
        if not 0.0 < demand_alpha <= 1.0:
            raise ValueError(f"demand_alpha must be in (0, 1]: {demand_alpha}")
        if not 0.0 <= demand_weight <= 1.0:
            raise ValueError(
                f"demand_weight must be in [0, 1]: {demand_weight}"
            )
        self.epoch = epoch
        self.demand_alpha = demand_alpha
        self.demand_weight = demand_weight
        self._epoch_end = epoch
        self._epoch_arrivals = 0
        self._demand = 0.0          # EWMA arrivals per epoch
        self._epochs_folded = 0
        self.forecasts = 0
        self.spin_down_decisions = 0

    # -- demand bookkeeping ------------------------------------------------
    def _roll_epochs(self, now: float) -> None:
        """Fold every finished epoch into the demand EWMA.

        Driven from notifications only (no self-scheduled epoch timer),
        so a policy that never sees traffic costs the simulator nothing.
        """
        while now >= self._epoch_end:
            if self._epochs_folded == 0:
                self._demand = float(self._epoch_arrivals)
            else:
                self._demand = (
                    self.demand_alpha * self._epoch_arrivals
                    + (1 - self.demand_alpha) * self._demand
                )
            self._epochs_folded += 1
            self._epoch_arrivals = 0
            self._epoch_end += self.epoch

    def demand_gap(self) -> float | None:
        """Forecast mean inter-arrival gap, or None before any evidence."""
        if self._epochs_folded == 0:
            return None
        if self._demand <= 1e-12:
            # A forecast of zero demand supports an arbitrarily long gap;
            # report one epoch *beyond* the horizon rather than infinity
            # so the blend stays finite.
            return 2.0 * self.epoch
        return self.epoch / self._demand

    def forecast_gap(self) -> float:
        """The blended idle-gap forecast the spin-down decision uses."""
        predicted = self.predictor.predict()
        gap = self.demand_gap()
        if gap is None:
            return predicted
        w = self.demand_weight
        return (1 - w) * predicted + w * gap

    # -- notifications -----------------------------------------------------
    def on_idle_start(self, now: float) -> None:
        self._roll_epochs(now)
        super().on_idle_start(now)

    def _decide_idle(self, now: float, elapsed: float) -> None:
        self._roll_epochs(now)
        forecast = self.forecast_gap()
        self.forecasts += 1
        # Wake on the more conservative of the window upper estimate
        # and the blended forecast (see PredictionSpinDown for why
        # waking early is the costlier failure mode).
        if forecast >= self.drive.spec.breakeven_idle_seconds() and (
            self._spin_down_until(
                max(self.predictor.predict_upper(), forecast), elapsed
            )
        ):
            self.spin_down_decisions += 1

    def on_request_arrival(self, now: float) -> None:
        self._roll_epochs(now)
        self._epoch_arrivals += 1
        super().on_request_arrival(now)


class CreditMultiSpeed(PredictivePolicy):
    """Credit-based DRPM speed selector with a performance-slack budget."""

    name = "credit"
    can_ramp = True

    def __init__(
        self,
        slack_budget: float = 0.05,
        credit_cap: float = 60.0,
        utilization_bound: float = 1.0,
    ):
        """``slack_budget`` is the fraction of elapsed time the policy may
        spend as worst-case performance exposure: credits (seconds) accrue
        at that rate, capped at ``credit_cap`` so a long-quiet drive
        cannot bank an unbounded license to stall.  A drop to RPM level
        *r* costs its ramp-back time (the exposure a surprise arrival
        would suffer) and is taken only when affordable.
        ``utilization_bound`` is forwarded to
        :func:`~repro.power.multispeed.speed_for_idle` — the default 1.0
        leaves pacing entirely to the credit budget."""
        super().__init__()
        if not 0.0 < slack_budget <= 1.0:
            raise ValueError(f"slack_budget must be in (0, 1]: {slack_budget}")
        if not credit_cap > 0:
            raise ValueError(f"credit_cap must be positive: {credit_cap}")
        if not 0 < utilization_bound <= 1:
            raise ValueError(
                f"utilization_bound must be in (0, 1]: {utilization_bound}"
            )
        self.slack_budget = slack_budget
        self.credit_cap = credit_cap
        self.utilization_bound = utilization_bound
        self._credit = 0.0
        self._last_accrual = 0.0
        self.ramps_taken = 0
        self.ramps_deferred = 0
        self.credit_spent = 0.0

    @property
    def credit(self) -> float:
        return self._credit

    def _accrue(self, now: float) -> None:
        self._credit = min(
            self.credit_cap,
            self._credit + self.slack_budget * (now - self._last_accrual),
        )
        self._last_accrual = now

    def on_idle_start(self, now: float) -> None:
        self._accrue(now)
        super().on_idle_start(now)

    def _decide_idle(self, now: float, elapsed: float) -> None:
        self._accrue(now)
        spec = self.drive.spec
        predicted = self.predictor.predict()
        rpm = speed_for_idle(spec, predicted, self.utilization_bound)
        if rpm == spec.max_rpm:
            return
        cost = spec.rpm_change_time(rpm, spec.max_rpm)
        if cost > self._credit:
            self.ramps_deferred += 1
            return
        self._credit -= cost
        self.credit_spent += cost
        self.ramps_taken += 1
        self.drive.request_rpm(rpm)
        # Proactive ramp-back, paid for up front by the spent credit: the
        # timer targets the window's upper estimate minus the ramp time.
        upper = self.predictor.predict_upper()
        if upper > 0:
            self._speed_up_at(upper, cost, elapsed)

    def on_request_arrival(self, now: float) -> None:
        self._accrue(now)
        super().on_request_arrival(now)
        self.drive.request_rpm(self.drive.spec.max_rpm)


class HybridCompilerAssist(PredictivePolicy):
    """Compiler-hinted spin-down with online divergence override.

    Constructed with the nominal per-node touch times of
    :func:`~repro.power.hints.nominal_node_touch_times`; at
    :meth:`bind` the policy resolves its drive's I/O node from the drive
    name (``node3.disk0`` → node 3) and keeps only that node's hints.
    Each observed arrival consumes the next hint and updates an
    offset/spread EWMA between observed and hinted times; decisions use
    the hinted *next-touch gap* (offset-corrected) while the spread stays
    inside ``divergence_tolerance``, and the plain idle-history
    prediction once it does not — or once the hints run out.  With no
    hints at all (scheme off) the policy degrades to pure online
    prediction.
    """

    name = "hybrid"
    can_spin_down = True

    #: EWMA weight of the newest (observed − hinted) sample.
    OFFSET_ALPHA = 0.5

    def __init__(
        self,
        hints: dict[int, tuple[float, ...]] | None = None,
        divergence_tolerance: float = 5.0,
    ):
        """``divergence_tolerance`` (seconds) bounds the mean absolute
        offset residual: above it, the table's timing evidently no longer
        describes the run (stragglers, degraded RAID, load imbalance) and
        the policy overrides the compiler."""
        super().__init__()
        if not divergence_tolerance > 0:
            raise ValueError(
                f"divergence_tolerance must be positive: {divergence_tolerance}"
            )
        self.hints = hints or {}
        self.divergence_tolerance = divergence_tolerance
        self._times: tuple[float, ...] = ()
        self._cursor = 0
        self._offset = 0.0
        self._spread = 0.0
        self._aligned = 0
        self.hint_decisions = 0
        self.fallback_decisions = 0
        self.overrides = 0
        self.spin_down_decisions = 0

    def bind(self, drive) -> None:
        super().bind(drive)
        name = drive.name
        if name.startswith("node") and "." in name:
            try:
                node = int(name[len("node"):name.index(".")])
            except ValueError:
                node = -1
            self._times = tuple(self.hints.get(node, ()))

    # -- hint alignment ----------------------------------------------------
    def _align(self, now: float) -> None:
        """Consume the next hint for an observed arrival and update the
        offset/spread estimates."""
        if self._cursor >= len(self._times):
            return
        divergence = now - self._times[self._cursor]
        self._cursor += 1
        if self._aligned == 0:
            self._offset = divergence
        else:
            residual = divergence - self._offset
            self._spread = (
                self.OFFSET_ALPHA * abs(residual)
                + (1 - self.OFFSET_ALPHA) * self._spread
            )
            self._offset = (
                self.OFFSET_ALPHA * divergence
                + (1 - self.OFFSET_ALPHA) * self._offset
            )
        self._aligned += 1

    def hints_trusted(self) -> bool:
        """Whether the table's timing still describes the observed run."""
        return (
            self._cursor < len(self._times)
            and self._aligned >= 2
            and self._spread <= self.divergence_tolerance
        )

    def _hinted_gap(self, now: float) -> float | None:
        """Offset-corrected time until the next hinted touch, if any."""
        for t in self._times[self._cursor:]:
            gap = t + self._offset - now
            if gap > 0:
                return gap
        return None

    # -- notifications -----------------------------------------------------
    def _decide_idle(self, now: float, elapsed: float) -> None:
        trusted = self.hints_trusted()
        gap = self._hinted_gap(now) if trusted else None
        if gap is not None:
            self.hint_decisions += 1
            predicted = gap
            # A hinted gap is a concrete appointment: wake for it, not
            # for the history's upper estimate.
            upper = gap
        else:
            if self._times and not trusted and self._aligned >= 2:
                self.overrides += 1
            self.fallback_decisions += 1
            predicted = self.predictor.predict()
            upper = self.predictor.predict_upper()
        if predicted >= self.drive.spec.breakeven_idle_seconds() and (
            self._spin_down_until(upper, elapsed)
        ):
            self.spin_down_decisions += 1

    def on_request_arrival(self, now: float) -> None:
        self._align(now)
        super().on_request_arrival(now)
