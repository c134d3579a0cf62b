"""The extended scheduling algorithm (§IV-B2, Figure 10).

Accesses may span ``l ≥ 1`` slots.  Already-scheduled accesses are broken
into *unit* accesses (one per occupied slot, each carrying the original
signature) — this is exactly what :class:`ScheduleState.group` stores, so
the group signatures come for free.  For a candidate slot *t* of an access
of length *l*, the vertical reuse range widens to ``[t−δ, t+l+δ]`` with
weight 1 across the access's own span ``[t, t+l]`` and the usual decaying
σ weights outside it.
"""

from __future__ import annotations

from .access import DataAccess
from .basic import BasicScheduler, ScheduleState
from .signature import inverse_distance

__all__ = ["ExtendedScheduler"]


class ExtendedScheduler(BasicScheduler):
    """Multi-slot-length generalization of the basic algorithm.

    With every access of length 1 this reduces exactly to
    :class:`BasicScheduler` (the test suite asserts that equivalence).
    """

    def reuse_factor(
        self, access: DataAccess, slot: int, state: ScheduleState
    ) -> float:
        """R_t over the widened range [t−δ, t+l−1+δ].

        Slots inside the access's own span get weight 1; a slot k steps
        outside the span gets σ_k = 1 − k/(δ+1).  (The paper's worked
        example — length 3 at t5, δ=2 ⇒ range t3..t9, weight 1 on
        t5..t7 — fixes the span as the l slots starting at t.)
        """
        total = 0.0
        g = access.signature
        span_end = slot + access.length - 1
        for s in range(slot - self.delta, span_end + self.delta + 1):
            if s < slot:
                k = slot - s
            elif s > span_end:
                k = s - span_end
            else:
                k = 0
            total += self._weights[k] * inverse_distance(
                g, state.group_at(s), self.n_nodes
            )
        return total

    def _first_last(self, access: DataAccess) -> tuple[int, int]:
        """The access must also *fit*: its last occupied slot may not pass
        the window end (a length-l access placed at t occupies
        [t, t+l−1]).  A window shorter than the access leaves only the
        window start as a legal (overhanging) placement."""
        last_start = access.end - access.length + 1
        if last_start < access.begin:
            last_start = access.begin
        return access.begin, last_start
