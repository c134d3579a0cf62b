"""Performance-aware (θ-constrained) scheduling (§IV-B3).

Aggressive grouping can pile many accesses onto one I/O node in one slot,
causing queueing delays.  The θ variant limits the number of scheduled
accesses per I/O node per slot: candidate slots are sorted by reuse factor
(non-increasing) and the first slot satisfying the θ constraint at every
covered iteration wins.  When no slot qualifies, the slot minimizing the
mean excess

    E_t = Σ_{d ∈ D_t} (M_d − θ) / |D_t|

is chosen (D_t = overloaded nodes, M_d = accesses on node d).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from .access import DataAccess
from .basic import BasicScheduler, ScheduleState
from .extended import ExtendedScheduler

__all__ = ["ThetaConstrainedScheduler", "mean_excess"]


def mean_excess(
    access: DataAccess, slot: int, state: ScheduleState, theta: int
) -> float:
    """E_t: average overload the placement would create, over the nodes
    that exceed θ across every slot the access would occupy."""
    overloaded: list[int] = []
    for s in range(slot, slot + access.length):
        loads = state.load_at(s)
        for node in range(state.n_nodes):
            if access.signature >> node & 1:
                would_be = loads[node] + 1
                if would_be > theta:
                    overloaded.append(would_be - theta)
    if not overloaded:
        return 0.0
    return sum(overloaded) / len(overloaded)


class ThetaConstrainedScheduler:
    """Wraps a basic or extended scheduler with the θ constraint.

    ``base`` supplies reuse factors, candidate slots and the occupancy
    rules; this class only changes *which* candidate is selected.
    """

    def __init__(self, base: BasicScheduler, theta: int = 4):
        if theta < 1:
            raise ValueError(f"theta must be >= 1: {theta}")
        self.base = base
        self.theta = theta
        self._nodes: dict[int, list[int]] = {}  # signature → its I/O nodes

    @property
    def n_nodes(self) -> int:
        return self.base.n_nodes

    @property
    def delta(self) -> int:
        return self.base.delta

    # ------------------------------------------------------------------
    def _satisfies_theta(
        self, access: DataAccess, slot: int, state: ScheduleState
    ) -> bool:
        """θ holds when every I/O node the access touches stays ≤ θ in
        every slot the access occupies."""
        nodes = self._nodes.get(access.signature)
        if nodes is None:
            nodes = self._nodes[access.signature] = [
                node for node in range(state.n_nodes)
                if access.signature >> node & 1
            ]
        for s in range(slot, slot + access.length):
            loads = state.node_load.get(s)
            if loads is not None:
                for node in nodes:
                    if loads[node] >= self.theta:
                        return False
        return True

    def place(self, access: DataAccess, state: ScheduleState) -> Optional[int]:
        scored = self.base.scored_candidates(access, state)
        if not scored:
            access.scheduled_slot = access.original_slot
            return None
        # Non-increasing score; equal scores follow the base tie-break
        # preference (latest slot first when tie_break == "latest").
        # ``scored`` comes in ascending slot order and the sort is stable.
        if self.base.tie_break == "latest":
            scored.reverse()
        scored.sort(key=itemgetter(1), reverse=True)
        for slot, _score in scored:
            if self._satisfies_theta(access, slot, state):
                state.commit(access, slot)
                return slot
        # No slot satisfies θ: minimize the average overload E_t.
        slot = min(
            (t for t, _s in scored),
            key=lambda t: (mean_excess(access, t, state, self.theta), t),
        )
        state.commit(access, slot)
        return slot

    def schedule(self, accesses: list[DataAccess]) -> ScheduleState:
        """Full run, identical driver to the base schedulers."""
        state = ScheduleState(n_nodes=self.n_nodes)
        for access in self.base._ordered(accesses):
            self.place(access, state)
        return state


def make_scheduler(
    n_nodes: int,
    delta: int = 20,
    theta: Optional[int] = 4,
    extended: bool = True,
    seed: int = 0,
    tie_break: str = "random",
    order: str = "shortest",
    weight_shape: str = "linear",
):
    """Factory assembling the full paper configuration.

    ``theta=None`` disables the performance constraint (pure §IV-B1/B2);
    ``extended=False`` restricts to unit-length accesses; ``order`` and
    ``weight_shape`` expose the ablation knobs (see
    :class:`~repro.core.basic.BasicScheduler`).
    """
    base_cls = ExtendedScheduler if extended else BasicScheduler
    base = base_cls(
        n_nodes, delta=delta, seed=seed, tie_break=tie_break,
        order=order, weight_shape=weight_shape,
    )
    if theta is None:
        return base
    return ThetaConstrainedScheduler(base, theta=theta)
