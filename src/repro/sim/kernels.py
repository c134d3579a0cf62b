"""Kernel registry — the pluggable event-engine implementations.

A *kernel* is an event queue + clock satisfying the interface
:class:`~repro.sim.engine.Simulator` defines (and reference-implements):

``schedule(delay, cb, *args)``
    relative-time scheduling; events at equal times fire in scheduling
    (``seq``) order.
``schedule_at_exact(time, cb, *args)``
    absolute-time scheduling with no float re-derivation of ``time``.
``step() / run(until, max_events)``
    consumption, with the heap kernel's exact ``until``/``max_events``
    semantics.
``cancel / _note_cancel / pending_events``
    O(1) cancel with an exact live counter.
``process / fire / _fire_signal / _note_phase``
    generator-process and signal semantics (shared via inheritance).
``kernel_name / supports_phase_collapse``
    registry identity and the analytic fast-path capability flag.

The contract is behavioural, not structural: every kernel must replay
the reference kernel's event order — and therefore every
:class:`~repro.experiments.runner.RunResult` — *bit-identically*.  The
differential corpus in ``tests/test_kernels_differential.py`` is the
contract's enforcement arm; a new kernel earns its registry entry by
passing it unmodified.

Kernel choice rides in :class:`~repro.experiments.config.ExperimentConfig`
(field ``kernel``), so it participates in ``to_key()`` and every memo and
cache digest — cached results can never silently mix kernels.
"""

from __future__ import annotations

from typing import Optional

from ..obs.base import Observability
from .analytic import AnalyticSimulator
from .engine import Simulator

__all__ = ["KERNELS", "DEFAULT_KERNEL", "kernel_names", "make_kernel"]

#: name -> kernel class, registry order (reference first).
KERNELS: dict[str, type[Simulator]] = {
    "heap": Simulator,
    "analytic": AnalyticSimulator,
}

DEFAULT_KERNEL = "heap"


def kernel_names() -> tuple[str, ...]:
    """Registered kernel names, registry order."""
    return tuple(KERNELS)


def make_kernel(name: str, obs: Optional[Observability] = None) -> Simulator:
    """Instantiate the named kernel (raises ``ValueError`` on unknown)."""
    cls = KERNELS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown simulation kernel {name!r}; "
            f"available: {', '.join(KERNELS)}"
        )
    return cls(obs=obs)
