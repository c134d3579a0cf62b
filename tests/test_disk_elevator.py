"""The elevator's sorted queue against the former whole-queue scan.

:class:`ScanOracleDrive` keeps the elevator as it was first written: every
pick rebuilds ``(cylinder, arrival index)`` for the whole queue, keeps the
requests ahead of the head in the sweep direction, turns when there are
none, and takes the nearest (earliest arrival on a tie).  The drive itself
keeps its queue sorted by ``(cylinder, arrival)`` and bisects.  Both must
serve every interleaving of submits and completions in the same order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.disk import DiskRequest, Drive, lba_to_cylinder
from repro.sim import Simulator

from conftest import fast_spec

SPEC = fast_spec()
BYTES_PER_CYLINDER = SPEC.capacity_bytes // SPEC.cylinders
TOP = SPEC.cylinders - 1


class ScanOracleDrive(Drive):
    """A drive whose picks come from the O(q) scan over the whole queue."""

    def _pick_next(self):
        queue = self._queue
        if len(queue) == 1 or self.arm_scheduling == "fifo":
            return queue.pop(0)
        arrivals = sorted(queue, key=lambda entry: entry[1])
        keyed = [
            (lba_to_cylinder(self.spec, entry[2].lba), i, entry)
            for i, entry in enumerate(arrivals)
        ]
        ahead = [k for k in keyed if (k[0] >= self._head_cylinder) == self._sweep_up]
        if not ahead:
            self._sweep_up = not self._sweep_up
            ahead = keyed
        chosen = min(ahead, key=lambda k: (abs(k[0] - self._head_cylinder), k[1]))
        queue.remove(chosen[2])
        return chosen[2]


def request_at(cylinder: int, offset: int = 0, **kwargs) -> DiskRequest:
    lba = cylinder * BYTES_PER_CYLINDER + offset
    return DiskRequest(lba=lba, nbytes=4096, **kwargs)


#: Few distinct cylinders, both ends included, so ties and turns are common.
cylinders = hst.one_of(
    hst.sampled_from([0, 1, 2, TOP // 2, TOP - 1, TOP]),
    hst.integers(0, TOP),
)


def held_drive(cls, arm_scheduling, head, sweep_up):
    """A drive kept busy so submits only queue, with a chosen head state."""
    drive = cls(Simulator(), SPEC, arm_scheduling=arm_scheduling)
    drive._busy = True
    drive._head_cylinder = head
    drive._sweep_up = sweep_up
    return drive


class TestPickAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        ops=hst.lists(hst.one_of(cylinders, hst.none()), max_size=60),
        head=cylinders,
        sweep_up=hst.booleans(),
        arm_scheduling=hst.sampled_from(["elevator", "fifo"]),
    )
    def test_same_pick_sequence(self, ops, head, sweep_up, arm_scheduling):
        """``None`` completes the request in service and picks the next;
        a cylinder submits a request there."""
        drive = held_drive(Drive, arm_scheduling, head, sweep_up)
        oracle = held_drive(ScanOracleDrive, arm_scheduling, head, sweep_up)
        # Trailing picks drain whatever is still queued.
        for n, op in enumerate(ops + [None] * len(ops)):
            if op is not None:
                drive.submit(request_at(op, offset=n))
                oracle.submit(request_at(op, offset=n))
                continue
            if not drive._queue:
                continue
            cylinder, _seq, picked = drive._pick_next()
            o_cylinder, _o_seq, o_picked = oracle._pick_next()
            assert (cylinder, picked.lba) == (o_cylinder, o_picked.lba)
            assert drive._sweep_up == oracle._sweep_up
            drive._head_cylinder = oracle._head_cylinder = cylinder
        assert not drive._queue and not oracle._queue

    @pytest.mark.parametrize(
        "head, sweep_up, queued, served, turned",
        [
            # Sweeping up past everything: turn and take the largest below.
            (TOP, True, [5, 9, 9, 0], 9, True),
            # Sweeping down with nothing below: turn and take the smallest.
            (0, False, [TOP, 7, 7], 7, True),
            # Sweeping up: the head's own cylinder counts as ahead.
            (9, True, [12, 9, 3], 9, False),
            # Sweeping down: the head's own cylinder is behind.
            (9, False, [12, 9, 3], 3, False),
        ],
    )
    def test_turns_and_boundaries(self, head, sweep_up, queued, served, turned):
        for cls in (Drive, ScanOracleDrive):
            drive = held_drive(cls, "elevator", head, sweep_up)
            requests = [request_at(c, offset=i) for i, c in enumerate(queued)]
            for request in requests:
                drive.submit(request)
            cylinder, _seq, picked = drive._pick_next()
            assert cylinder == served
            # Equal cylinders go in arrival order.
            assert picked is requests[queued.index(served)]
            assert drive._sweep_up == (sweep_up != turned)

    def test_lone_request_keeps_the_sweep_direction(self):
        for cls in (Drive, ScanOracleDrive):
            drive = held_drive(cls, "elevator", TOP, True)
            drive.submit(request_at(0))
            drive._pick_next()
            assert drive._sweep_up is True


#: One burst: (gap before it in seconds, [(cylinder, nbytes, sequential)]).
bursts = hst.lists(
    hst.tuples(
        hst.floats(0.0, 0.05, allow_nan=False),
        hst.lists(
            hst.tuples(cylinders, hst.integers(512, 2**20), hst.booleans()),
            min_size=1,
            max_size=8,
        ),
    ),
    min_size=1,
    max_size=12,
)


def served_order(cls, arm_scheduling, stream):
    sim = Simulator()
    drive = cls(sim, SPEC, name="d", arm_scheduling=arm_scheduling)
    order = []
    at = 0.0
    n = 0
    for gap, burst in stream:
        at += gap
        for cylinder, nbytes, sequential in burst:
            request = DiskRequest(
                lba=cylinder * BYTES_PER_CYLINDER,
                nbytes=nbytes,
                sequential_hint=sequential,
                on_complete=lambda r, n=n: order.append((n, r.end_time)),
            )
            sim.schedule_at(at, drive.submit, request)
            n += 1
    sim.run()
    drive.finalize()
    return order, list(drive.timeline.intervals()), drive.stats


class TestServedOrderAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(stream=bursts, arm_scheduling=hst.sampled_from(["elevator", "fifo"]))
    def test_identical_service(self, stream, arm_scheduling):
        """Through the simulator: same completion order and times, same
        timeline, same statistics."""
        assert served_order(Drive, arm_scheduling, stream) == served_order(
            ScanOracleDrive, arm_scheduling, stream
        )
