"""Boundary timers and the cProfile layer fold of the traced benchmark pass.

Everything here runs inside a benchmark child process (see ``launch.py``).
:class:`Ledger` wraps calls into each layer's public functions with a
span timer.  Every thread keeps its own span stack, so a span's *self*
time excludes the spans nested inside it (the server runs batches and
WAL fsyncs in worker threads).  Totals stay in memory and are written
once, when the child exits.

:func:`fold_profile` turns a cProfile of the simulation interior into
seconds per repro subpackage ("layer").  Builtin and standard-library
time is charged to the repro frame that called it.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import PurePath
from typing import Any, Callable, Optional

#: Layers of the discrete-event interior whose shares the traced pass
#: reports.  Time in any other repro subpackage folds into ``other``.
DES_LAYERS = ("sim", "disk", "power", "storage", "net", "runtime")

#: Files whose time belongs to another layer than their subpackage:
#: ``StateTimeline`` records drive power states, so it is disk time.
_LAYER_OVERRIDES = {("sim", "trace.py"): "disk"}


class Ledger:
    """Per-name span totals (count, total and self seconds) and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: dict[str, list[float]] = {}  # name -> [count, total, self]
        self.counts: dict[str, float] = {}

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def timed(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span called ``name``; ``observe`` sees each
        return value (outside the span) to count the work it carries."""

        def timed_call(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            stack.append(0.0)  # time spent in nested spans
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    totals = self.spans.setdefault(name, [0, 0.0, 0.0])
                    totals[0] += 1
                    totals[1] += elapsed
                    totals[2] += elapsed - nested
            if observe is not None:
                observe(result)
            return result

        return timed_call

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "spans": {
                    name: {"count": c, "total_s": t, "self_s": s}
                    for name, (c, t, s) in sorted(self.spans.items())
                },
                "counts": dict(sorted(self.counts.items())),
            }


def rebind(original: Callable[..., Any], replacement: Callable[..., Any]) -> int:
    """Point every loaded ``repro`` module's name for ``original`` at
    ``replacement``; returns how many bindings changed.

    Callers import with ``from … import name``, so patching only the
    defining module would miss them: each use site is rebound instead.
    """
    rebound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    return rebound


# ----------------------------------------------------------------------
# cProfile fold
# ----------------------------------------------------------------------
def layer_of(filename: str) -> Optional[str]:
    """The repro layer a source file belongs to, or ``None`` for builtin,
    standard-library and other non-repro code."""
    parts = PurePath(filename).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] != "repro":
            continue
        rest = parts[i + 1:]
        if len(rest) == 1:
            return "repro"  # a top-level module such as repro/cli.py
        return _LAYER_OVERRIDES.get((rest[0], rest[-1]), rest[0])
    return None


FuncKey = tuple  # (filename, lineno, funcname), as pstats keys functions


def fold_profile(stats: dict[FuncKey, tuple]) -> dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    Each entry maps a function to ``(cc, nc, tottime, cumtime, callers)``
    where ``callers`` maps each caller to its own ``(cc, nc, tt, ct)``
    share of the call.  A repro function's tottime goes to its layer.  A
    builtin or stdlib function's tottime is split across its callers in
    proportion to the tottime each caller accounts for; a caller that is
    itself non-repro passes its part on by cumtime, until every part
    lands on a repro frame.  Time with no repro caller is ``other``.
    """
    memo: dict[FuncKey, dict[str, float]] = {}
    in_progress: set[FuncKey] = set()

    def spread(callers: dict, field: int) -> dict[str, float]:
        """Layer fractions of a call, weighted by ``field`` of each
        caller entry (2 = tottime share, 3 = cumtime share)."""
        weights = {c: e[field] for c, e in callers.items() if e[field] > 0}
        total = sum(weights.values())
        if total <= 0:
            return {"other": 1.0}
        shares: dict[str, float] = {}
        for caller, weight in weights.items():
            for name, frac in attribution(caller).items():
                shares[name] = shares.get(name, 0.0) + frac * weight / total
        return shares

    def attribution(func: FuncKey) -> dict[str, float]:
        """Fractions of ``func``'s time owed to each layer."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in in_progress:  # recursion among non-repro frames
            return {"other": 1.0}
        in_progress.add(func)
        memo[func] = spread(stats.get(func, (0, 0, 0.0, 0.0, {}))[4], 3)
        in_progress.discard(func)
        return memo[func]

    seconds: dict[str, float] = {}
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        if tottime <= 0:
            continue
        layer = layer_of(func[0])
        shares = {layer: 1.0} if layer is not None else spread(callers, 2)
        for name, frac in shares.items():
            seconds[name] = seconds.get(name, 0.0) + tottime * frac
    return seconds
