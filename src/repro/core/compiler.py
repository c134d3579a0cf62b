"""The optimizing-compiler driver (Figure 4's left half).

Glues the pipeline together: trace (or analyze) the program, determine
access slacks, run the chosen scheduling algorithm, and emit per-process
scheduling tables.  This is the single entry point workloads and
experiments use:

    result = compile_schedule(program, stripe_map, files, CompilerOptions())
    result.book.table_for(pid)   # what each runtime scheduler thread walks
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..ir.profiling import AccessTrace, trace_program
from ..ir.program import Program
from ..storage.striping import StripedFile, StripeMap
from .access import DataAccess
from .basic import ScheduleState
from .perf import make_scheduler
from .slack import SlackOptions, determine_slacks
from .table import ScheduleBook

__all__ = ["CompilerOptions", "CompileResult", "compile_schedule"]


@dataclass(frozen=True)
class CompilerOptions:
    """Everything the compiler's power-optimization phase can be tuned by.

    Mirrors the paper's knobs: δ (vertical reuse range), θ (per-node
    per-slot access bound; ``None`` disables §IV-B3), the slot granularity
    *d*, and whether the extended (multi-length) algorithm runs.

    The compiler does not verify what it emits: call
    :func:`~repro.analysis.verify_schedule` on the result (the campaign
    does, through :meth:`~repro.experiments.runner.Runner.verification`,
    against the config's own runtime model).
    """

    delta: int = 20
    theta: Optional[int] = 4
    granularity: int = 1
    extended: bool = True
    seed: int = 0
    tie_break: str = "latest"
    order: str = "shortest"
    weight_shape: str = "linear"
    slack: SlackOptions = field(default_factory=SlackOptions)


@dataclass
class CompileResult:
    """Output bundle of one compilation."""

    program: Program
    trace: AccessTrace
    accesses: list[DataAccess]
    state: ScheduleState
    book: ScheduleBook

    @property
    def moved(self) -> int:
        return self.book.moved_count()

    def stats(self) -> dict[str, float]:
        """Summary statistics for reports and tests."""
        slacks = [a.slack_length for a in self.accesses]
        early = sum(1 for a in self.accesses if a.is_early_prefetch)
        return {
            "accesses": len(self.accesses),
            "moved": self.moved,
            "early_prefetches": early,
            "mean_slack": sum(slacks) / len(slacks) if slacks else 0.0,
            "max_slack": max(slacks, default=0),
            "n_slots": self.book.n_slots,
        }


def compile_schedule(
    program: Program,
    stripe_map: StripeMap,
    files: dict[str, StripedFile],
    options: CompilerOptions = CompilerOptions(),
    trace: Optional[AccessTrace] = None,
) -> CompileResult:
    """Run the full compiler pipeline on ``program``.

    ``trace`` may be supplied to reuse an existing profiling run (the
    simulation harness traces once and compiles from the same trace).
    Affine programs take the same code path — for them the trace *is* the
    polyhedral enumeration (see :mod:`repro.ir.dependence`).
    """
    if trace is None:
        trace = trace_program(program, granularity=options.granularity)

    accesses = determine_slacks(trace, stripe_map, files, options.slack)
    scheduler = make_scheduler(
        n_nodes=stripe_map.n_nodes,
        delta=options.delta,
        theta=options.theta,
        extended=options.extended,
        seed=options.seed,
        tie_break=options.tie_break,
        order=options.order,
        weight_shape=options.weight_shape,
    )
    state = scheduler.schedule(accesses)
    book = ScheduleBook.from_accesses(
        accesses, n_processes=program.n_processes, n_slots=trace.n_slots
    )
    return CompileResult(
        program=program, trace=trace, accesses=accesses, state=state, book=book
    )
