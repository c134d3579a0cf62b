"""Straggler-aware client-side request reordering.

Client-side straggler-aware I/O schedulers observe that in a parallel
file system one slow server gates every collective request touching it,
so the *client* should issue the fragments bound for slow servers first
— giving the straggler a head start instead of queueing behind fast
servers' traffic.

:class:`StragglerAwareReorderer` ports that idea onto the scheduler
threads of §III: it keeps a per-I/O-node completion-latency EWMA fed by
observed prefetch completions and reorders each issue window so the
accesses whose slowest touched node is slowest overall go out first.
Reordering *within* a window is free with respect to the compiled
schedule — the thread issues the whole window at its first slot anyway,
so the table's energy-motivated placement is untouched; only the issue
order inside one batch changes.

One reorderer is shared by every scheduler thread of a session (the
straggler map is global, and the simulator is single-threaded, so
sharing is deterministic and free).
"""

from __future__ import annotations

__all__ = ["StragglerAwareReorderer"]


class StragglerAwareReorderer:
    """Per-node latency EWMA + deterministic slowest-first window order."""

    def __init__(self, n_nodes: int, alpha: float = 0.3):
        """``alpha`` weights the newest completion latency; small values
        smooth over per-request noise so a single slow seek does not
        reshuffle every subsequent window."""
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1: {n_nodes}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1]: {alpha}")
        self.n_nodes = n_nodes
        self.alpha = alpha
        self._ewma = [0.0] * n_nodes
        self._seen = [0] * n_nodes
        self.observations = 0
        self.reordered_windows = 0

    def observe(self, node: int, latency: float) -> None:
        """Record a completed request's latency against ``node``."""
        if not 0 <= node < self.n_nodes:
            return
        if latency < 0:
            return
        if self._seen[node] == 0:
            self._ewma[node] = latency
        else:
            self._ewma[node] = (
                self.alpha * latency + (1 - self.alpha) * self._ewma[node]
            )
        self._seen[node] += 1
        self.observations += 1

    def expected_latency(self, signature: int) -> float:
        """Expected completion latency of a request with the given
        I/O-node bitmask: the slowest touched node gates the request."""
        worst = 0.0
        bit = 0
        sig = signature
        while sig:
            if sig & 1 and bit < self.n_nodes:
                worst = max(worst, self._ewma[bit])
            sig >>= 1
            bit += 1
        return worst

    def order(self, accesses: list) -> list:
        """Deterministic slowest-first ordering of one issue window.

        Stable: accesses with equal expected latency (including the
        no-evidence-yet case, where every estimate is 0.0) keep their
        table order, so a reorderer with no observations is an exact
        no-op and fault-free runs stay bit-identical to unreordered ones.
        """
        if len(accesses) < 2:
            return list(accesses)
        decorated = sorted(
            enumerate(accesses),
            key=lambda pair: (-self.expected_latency(pair[1].signature), pair[0]),
        )
        ordered = [access for _idx, access in decorated]
        if any(idx != pos for pos, (idx, _a) in enumerate(decorated)):
            self.reordered_windows += 1
        return ordered
