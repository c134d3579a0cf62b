"""Disk power-management policies (paper §II, plus the online family).

Four evaluated policies — :class:`SimpleSpinDown`,
:class:`PredictionSpinDown`, :class:`HistoryBasedMultiSpeed`,
:class:`StaggeredMultiSpeed` — plus the :class:`NoPowerManagement`
baseline ("Default Scheme") and an oracle upper bound for ablations.
The two predictive ones share :class:`PredictivePolicy` (the idle-length
predictor, the detection dwell and the ahead-of-time wake-ups).

Beyond the paper, :mod:`repro.power.online` contributes three adaptive
policies — :class:`ForecastSpindown`, :class:`CreditMultiSpeed`,
:class:`HybridCompilerAssist` — pitted against the static compiler by
the policy tournament (:mod:`repro.experiments.tournament`); all three
derive from :class:`PredictivePolicy` too.

:data:`POLICY_CLASSES` is the only name → class table; ``POLICY_NAMES``
and :func:`make_policy` are read from it.

:mod:`repro.power.hints` (schedule-derived nominal touch times) is *not*
re-exported here: it imports the storage layer, which depends back on
this package's policy interface; import it directly as
``from repro.power.hints import nominal_node_touch_times``.
"""

from .multispeed import HistoryBasedMultiSpeed, StaggeredMultiSpeed, speed_for_idle
from .online import CreditMultiSpeed, ForecastSpindown, HybridCompilerAssist
from .oracle import OracleSpinDown
from .policy import NoPowerManagement, PowerPolicy
from .predictor import IdlePredictor, PredictivePolicy
from .spindown import PredictionSpinDown, SimpleSpinDown

__all__ = [
    "PowerPolicy",
    "PredictivePolicy",
    "NoPowerManagement",
    "SimpleSpinDown",
    "PredictionSpinDown",
    "HistoryBasedMultiSpeed",
    "StaggeredMultiSpeed",
    "ForecastSpindown",
    "CreditMultiSpeed",
    "HybridCompilerAssist",
    "OracleSpinDown",
    "IdlePredictor",
    "speed_for_idle",
    "POLICY_CLASSES",
    "POLICY_NAMES",
    "make_policy",
]

#: The one name → policy class table, keyed by each class's own ``name``.
#: The simulator wiring, the static analyzer and :func:`make_policy` all
#: read it, so a policy's capability flags have one declaration.
POLICY_CLASSES: dict[str, type[PowerPolicy]] = {
    cls.name: cls
    for cls in (
        NoPowerManagement,
        SimpleSpinDown,
        PredictionSpinDown,
        HistoryBasedMultiSpeed,
        StaggeredMultiSpeed,
        ForecastSpindown,
        CreditMultiSpeed,
        HybridCompilerAssist,
    )
}

POLICY_NAMES = tuple(POLICY_CLASSES)


def make_policy(name: str, **kwargs) -> PowerPolicy:
    """Factory: build a policy by name.

    Paper policies: ``default`` | ``simple`` | ``prediction`` |
    ``history`` | ``staggered``.  Online family: ``forecast`` |
    ``credit`` | ``hybrid``.  Keyword arguments are forwarded to the
    policy constructor (``hybrid`` notably accepts ``hints=``).
    """
    if name not in POLICY_CLASSES:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(POLICY_CLASSES)}"
        )
    return POLICY_CLASSES[name](**kwargs)
