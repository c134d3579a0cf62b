"""The experiment runner: one (workload, policy, scheme) → measurements.

Builds the trace, optionally compiles the schedule (once per workload ×
compiler-config; compilation is policy-independent), assembles a
:class:`~repro.runtime.session.Session`, runs it, and distils the metrics
every figure consumes.  Results and compilations are memoized per
configuration so the figure functions can share runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.compiler import CompileResult, CompilerOptions, compile_schedule
from ..core.slack import SlackOptions
from ..ir.profiling import AccessTrace, trace_program
from ..metrics.energy import breakdown_until, idle_periods_until
from ..metrics.idle import IdleCDF, idle_cdf
from ..obs.base import Observability
from ..power import POLICY_CLASSES, make_policy
from ..runtime.session import Session
from ..workloads import get_workload
from .config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.diagnostics import Report

__all__ = [
    "RunResult",
    "Runner",
    "POLICIES",
    "ONLINE_POLICIES",
]

#: The paper's four evaluated policies — figure grids are pinned to these.
POLICIES = ("simple", "prediction", "history", "staggered")
#: The online/adaptive family (beyond the paper; see ``repro.power.online``).
ONLINE_POLICIES = ("forecast", "credit", "hybrid")


@dataclass
class RunResult:
    """Distilled measurements of one run."""

    workload: str
    policy: str
    scheme: bool
    execution_time: float
    energy_joules: float
    idle_cdf: IdleCDF
    idle_periods: list[float]
    energy_breakdown: dict[str, float]
    buffer_hits: int
    prefetches: int
    accesses: int


class Runner:
    """Memoizing experiment driver for one base configuration.

    Results live in a per-process memo table; the on-disk result cache
    belongs to the campaign
    (:class:`~repro.exec.supervise.CampaignSupervisor`), which seeds the
    memo before a figure renders.  ``simulations`` counts the runs that
    actually hit the simulator in this process.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.simulations = 0
        self._traces: dict[tuple, AccessTrace] = {}
        self._compilations: dict[tuple, CompileResult] = {}
        self._verifications: dict[tuple, "Report"] = {}
        self._runs: dict[tuple, RunResult] = {}

    # ------------------------------------------------------------------
    # Cached building blocks
    # ------------------------------------------------------------------
    def trace(
        self, workload: str, config: Optional[ExperimentConfig] = None
    ) -> AccessTrace:
        cfg = config or self.config
        key = (workload, cfg.n_clients, cfg.workload_scale, cfg.granularity)
        if key not in self._traces:
            program = get_workload(workload).build(
                n_processes=cfg.n_clients, scale=cfg.workload_scale
            )
            self._traces[key] = trace_program(
                program, granularity=cfg.granularity
            )
        return self._traces[key]

    @staticmethod
    def _compilation_key(workload: str, cfg: ExperimentConfig) -> tuple:
        return (
            workload,
            cfg.n_clients,
            cfg.workload_scale,
            cfg.granularity,
            cfg.n_ionodes,
            cfg.stripe_size,
            cfg.delta,
            cfg.theta,
            cfg.max_slack,
        )

    def compilation(
        self, workload: str, config: Optional[ExperimentConfig] = None
    ) -> CompileResult:
        cfg = config or self.config
        key = self._compilation_key(workload, cfg)
        if key not in self._compilations:
            trace = self.trace(workload, cfg)
            # Build the striping view the compiler schedules against.
            from ..storage.striping import StripedFile, StripeMap

            stripe_map = StripeMap(cfg.stripe_size, cfg.n_ionodes)
            files = {
                name: StripedFile(name, decl.size_bytes)
                for name, decl in trace.program.files.items()
            }
            options = CompilerOptions(
                delta=cfg.delta,
                theta=cfg.theta,
                granularity=cfg.granularity,
                slack=SlackOptions(max_slack=cfg.max_slack),
            )
            self._compilations[key] = compile_schedule(
                trace.program, stripe_map, files, options, trace=trace
            )
        return self._compilations[key]

    def verification(
        self, workload: str, config: Optional[ExperimentConfig] = None
    ) -> "Report":
        """The static verifier's report on this workload's compiled schedule.

        Verification reads the compilation (its trace and book) and the
        runtime model — never the power policy — so every policy sharing a
        compilation and runtime shares one report.  The report is what is
        memoised, errors included.
        """
        from ..analysis import RuntimeModel, verify_schedule

        cfg = config or self.config
        runtime = RuntimeModel.from_session_config(cfg.session_config())
        key = (self._compilation_key(workload, cfg), runtime)
        if key not in self._verifications:
            compiled = self.compilation(workload, cfg)
            self._verifications[key] = verify_schedule(
                compiled.trace,
                compiled.book,
                runtime=runtime,
                include_lint=False,
            )
        return self._verifications[key]

    # ------------------------------------------------------------------
    # Policy factory
    # ------------------------------------------------------------------
    def _policy_factory(
        self,
        policy: str,
        cfg: ExperimentConfig,
        workload: Optional[str] = None,
        scheme: bool = False,
    ):
        """Zero-arg factory the session calls once per drive.

        ``workload``/``scheme`` matter only for ``hybrid``, whose hints
        are the compiled schedule's nominal touch times — available
        exactly when the scheme is on for a known workload; otherwise the
        policy runs hint-less (pure online fallback).
        """
        if policy not in POLICY_CLASSES:
            raise ValueError(f"unknown policy {policy!r}")
        kwargs = cfg.policy_kwargs(policy)
        if policy == "hybrid" and scheme and workload is not None:
            from ..power.hints import nominal_node_touch_times

            kwargs["hints"] = nominal_node_touch_times(
                self.trace(workload, cfg),
                cfg.n_ionodes,
                cfg.stripe_size,
                book=self.compilation(workload, cfg).book,
            )
        return lambda: make_policy(policy, **kwargs)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _simulate(
        self,
        workload: str,
        policy: str,
        scheme: bool,
        cfg: ExperimentConfig,
        obs: Optional[Observability] = None,
    ) -> RunResult:
        """Simulate one point unconditionally and distil its result.

        ``obs`` threads an observability context into the session; the
        distilled :class:`RunResult` is identical with or without it.
        """
        self.simulations += 1
        trace = self.trace(workload, cfg)
        compile_result = self.compilation(workload, cfg) if scheme else None
        factory = self._policy_factory(
            policy, cfg, workload=workload, scheme=scheme
        )
        session = Session(
            trace,
            cfg.disk_spec(POLICY_CLASSES[policy].can_ramp),
            factory,
            cfg.session_config(),
            compile_result=compile_result,
            obs=obs,
            faults=cfg.fault_plan,
        )
        outcome = session.run()
        horizon = outcome.execution_time
        if obs is not None and obs.metrics is not None:
            from ..obs.collect import collect_session_metrics

            collect_session_metrics(obs.metrics, outcome, horizon)

        periods = [
            p for d in outcome.drives for p in idle_periods_until(d, horizon)
        ]
        breakdowns = [breakdown_until(d, horizon) for d in outcome.drives]
        breakdown_total: dict[str, float] = {}
        for breakdown in breakdowns:
            for state, joules in breakdown.as_dict().items():
                breakdown_total[state] = breakdown_total.get(state, 0.0) + joules

        return RunResult(
            workload=workload,
            policy=policy,
            scheme=scheme,
            execution_time=horizon,
            energy_joules=sum(b.total for b in breakdowns),
            idle_cdf=idle_cdf(periods),
            idle_periods=periods,
            energy_breakdown=breakdown_total,
            buffer_hits=outcome.buffer.hits if outcome.buffer else 0,
            prefetches=outcome.buffer.total_prefetches if outcome.buffer else 0,
            accesses=len(compile_result.accesses) if compile_result else 0,
        )

    def run(
        self,
        workload: str,
        policy: str,
        scheme: bool,
        config: Optional[ExperimentConfig] = None,
        obs: Optional[Observability] = None,
    ) -> RunResult:
        """Run (memoized) and distil one experiment.

        Passing ``obs`` simulates now under that observability context,
        never from the memo table — a memoized result carries no trace
        events and no metrics.  The fresh result *is* memoized, and is
        bit-identical to an unobserved run's.
        """
        cfg = config or self.config
        key = (workload, policy, scheme, cfg.to_key())
        if obs is not None or key not in self._runs:
            self._runs[key] = self._simulate(
                workload, policy, scheme, cfg, obs=obs
            )
        return self._runs[key]

    def seed_result(
        self,
        workload: str,
        policy: str,
        scheme: bool,
        config: ExperimentConfig,
        result: RunResult,
    ) -> None:
        """Install an externally-computed result into the memo table.

        The campaign uses this to make figure drivers — which call
        :meth:`run` serially — find every grid point already materialized.
        """
        self._runs[(workload, policy, scheme, config.to_key())] = result

    def baseline(
        self, workload: str, config: Optional[ExperimentConfig] = None
    ) -> RunResult:
        """The Default Scheme run (no power management, no scheduling)."""
        return self.run(workload, "default", scheme=False, config=config)

    # ------------------------------------------------------------------
    def normalized_energy(
        self, workload: str, policy: str, scheme: bool,
        config: Optional[ExperimentConfig] = None,
    ) -> float:
        """Policy energy ÷ default energy (Figures 12(c)/(d))."""
        cfg = config or self.config
        base = self.baseline(workload, cfg)
        run = self.run(workload, policy, scheme, cfg)
        return run.energy_joules / base.energy_joules

    def degradation(
        self, workload: str, policy: str, scheme: bool,
        config: Optional[ExperimentConfig] = None,
    ) -> float:
        """Execution-time degradation versus the default scheme
        (Figures 13(a)/(b))."""
        cfg = config or self.config
        base = self.baseline(workload, cfg)
        run = self.run(workload, policy, scheme, cfg)
        return run.execution_time / base.execution_time - 1.0
