"""The slot scorer and θ selection against the ones they replaced.

The scorer finds a window's free starts in one scan and looks inverse
distances up through one row per signature; the θ variant ranks with a
stable sort and checks only the nodes an access touches.  The per-start
``is_available`` filter, the per-slot memo loop and the keyed θ ranking
they replaced are kept here as oracles: on random occupancy states the
(slot, score) pairs must be equal — floats compared with ``==`` — and
the paper workloads must compile to the same slots.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BasicScheduler,
    CompilerOptions,
    DataAccess,
    ExtendedScheduler,
    ScheduleState,
    SlackOptions,
    ThetaConstrainedScheduler,
    determine_slacks,
    inverse_distance,
    mean_excess,
)
from repro.experiments import Runner, default_config
from repro.storage.striping import StripedFile, StripeMap

PAPER_WORKLOADS = ["hf", "sar", "astro", "apsi", "madbench2", "wupwise"]
DELTA_THETA = [(20, 4), (5, 1), (60, 8), (33, 2)]
N_NODES = 4


class OracleScorer:
    """The per-start filter and per-slot value loop, as they stood
    before the one-scan scorer (mix in ahead of a scheduler class)."""

    def _candidate_slots(self, access, state):
        first, last_start = self._first_last(access)
        return [
            t
            for t in range(first, last_start + 1)
            if state.is_available(access, t)
        ]

    def _score_window(self, access, state, first, last_start):
        g = access.signature
        lo = first - self.delta
        hi = last_start + access.length - 1 + self.delta
        memo = self.__dict__.setdefault("_oracle_memo", {})
        values = []
        for s in range(lo, hi + 1):
            key = (g, state.group.get(s, 0))
            value = memo.get(key)
            if value is None:
                value = memo[key] = inverse_distance(g, key[1], self.n_nodes)
            values.append(value)
        inv = np.array(values, dtype=float)
        tail = self._weights[1:][::-1]
        kernel = np.array(
            tail + [1.0] * access.length + list(reversed(tail)), dtype=float
        )
        return np.convolve(inv, kernel, mode="valid")

    def scored_candidates(self, access, state):
        candidates = self._candidate_slots(access, state)
        if not candidates:
            return []
        first, last_start = self._first_last(access)
        scores = self._score_window(access, state, first, last_start)
        return [(t, float(scores[t - first])) for t in candidates]


class OracleBasic(OracleScorer, BasicScheduler):
    pass


class OracleExtended(OracleScorer, ExtendedScheduler):
    pass


class OracleTheta(ThetaConstrainedScheduler):
    """θ selection with the keyed sort and the every-node load scan."""

    def _satisfies_theta(self, access, slot, state):
        for s in range(slot, slot + access.length):
            loads = state.load_at(s)
            for node in range(state.n_nodes):
                if access.signature >> node & 1 and loads[node] + 1 > self.theta:
                    return False
        return True

    def place(self, access, state):
        scored = self.base.scored_candidates(access, state)
        if not scored:
            access.scheduled_slot = access.original_slot
            return None
        tie_sign = -1 if self.base.tie_break == "latest" else 1
        scored.sort(key=lambda pair: (-pair[1], tie_sign * pair[0]))
        for slot, _score in scored:
            if self._satisfies_theta(access, slot, state):
                state.commit(access, slot)
                return slot
        slot = min(
            (t for t, _s in scored),
            key=lambda t: (mean_excess(access, t, state, self.theta), t),
        )
        state.commit(access, slot)
        return slot


placements = st.lists(
    st.tuples(
        st.integers(0, 2),    # process
        st.integers(-6, 40),  # slot
        st.integers(1, 4),    # length
        st.integers(1, 2**N_NODES - 1),  # signature
    ),
    max_size=30,
)
probes = st.lists(
    st.tuples(
        st.integers(0, 2),     # process
        st.integers(-10, 36),  # window begin (negative starts included)
        st.integers(0, 12),    # window width - 1 (short ones overhang)
        st.integers(1, 4),     # length
        st.integers(1, 2**N_NODES - 1),
    ),
    min_size=1,
    max_size=6,
)


def random_state(placed) -> ScheduleState:
    state = ScheduleState(n_nodes=N_NODES)
    for aid, (process, slot, length, signature) in enumerate(placed):
        access = DataAccess(
            aid=aid, process=process, original_slot=slot, begin=slot,
            end=slot, signature=signature, length=length,
        )
        if state.is_available(access, slot):
            state.commit(access, slot)
    return state


class TestScoredCandidatesMatchOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        placed=placements,
        probed=probes,
        delta=st.integers(0, 8),
        extended=st.booleans(),
        weight_shape=st.sampled_from(["linear", "uniform"]),
    )
    def test_equal_on_random_states(
        self, placed, probed, delta, extended, weight_shape
    ):
        state = random_state(placed)
        cls, oracle_cls = (
            (ExtendedScheduler, OracleExtended) if extended
            else (BasicScheduler, OracleBasic)
        )
        scorer = cls(N_NODES, delta=delta, weight_shape=weight_shape)
        oracle = oracle_cls(N_NODES, delta=delta, weight_shape=weight_shape)
        # One scheduler scores every probe, so its per-signature rows
        # carry over between calls as they do in a real compile.
        for aid, (process, begin, width, length, signature) in enumerate(
            probed, start=1_000
        ):
            probe = DataAccess(
                aid=aid, process=process, original_slot=begin + width,
                begin=begin, end=begin + width, signature=signature,
                length=length,
            )
            got = scorer.scored_candidates(probe, state)
            assert got == oracle.scored_candidates(probe, state)
            assert all(type(score) is float for _t, score in got)


    @settings(max_examples=200, deadline=None)
    @given(
        placed=placements,
        probed=probes,
        delta=st.integers(0, 8),
        theta=st.integers(1, 3),
        tie_break=st.sampled_from(["latest", "first", "random"]),
    )
    def test_theta_places_equal_on_random_states(
        self, placed, probed, delta, theta, tie_break
    ):
        runs = []
        for base_cls, theta_cls in (
            (ExtendedScheduler, ThetaConstrainedScheduler),
            (OracleExtended, OracleTheta),
        ):
            state = random_state(placed)
            sched = theta_cls(
                base_cls(N_NODES, delta=delta, tie_break=tie_break),
                theta=theta,
            )
            placed_at = []
            for aid, (process, begin, width, length, signature) in enumerate(
                probed, start=1_000
            ):
                probe = DataAccess(
                    aid=aid, process=process, original_slot=begin + width,
                    begin=begin, end=begin + width, signature=signature,
                    length=length,
                )
                placed_at.append(sched.place(probe, state))
            runs.append((placed_at, state.occupied, state.node_load))
        assert runs[0] == runs[1]


@pytest.fixture(scope="module")
def runner():
    return Runner(default_config(scale=0.05))


class TestPaperSchedulesMatchOracle:
    @pytest.mark.parametrize("name", PAPER_WORKLOADS)
    def test_same_slots_for_every_delta_theta(self, runner, name):
        cfg = runner.config
        trace = runner.trace(name)
        stripe_map = StripeMap(cfg.stripe_size, cfg.n_ionodes)
        files = {
            n: StripedFile(n, d.size_bytes)
            for n, d in trace.program.files.items()
        }
        opts = CompilerOptions()
        for delta, theta in DELTA_THETA:
            slots = []
            for cls, theta_cls in (
                (ExtendedScheduler, ThetaConstrainedScheduler),
                (OracleExtended, OracleTheta),
            ):
                accesses = determine_slacks(
                    trace, stripe_map, files,
                    SlackOptions(max_slack=cfg.max_slack),
                )
                base = cls(
                    stripe_map.n_nodes, delta=delta, seed=opts.seed,
                    tie_break=opts.tie_break, order=opts.order,
                    weight_shape=opts.weight_shape,
                )
                theta_cls(base, theta=theta).schedule(accesses)
                slots.append([(a.aid, a.scheduled_slot) for a in accesses])
            assert slots[0] == slots[1], (name, delta, theta)
