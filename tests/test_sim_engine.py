"""Tests for the discrete-event simulation kernel."""

import heapq

import pytest

from repro.sim import AllOf, AnyOf, Signal, Simulator, Timeout
from repro.sim.events import Event


class TestScheduling:
    def test_schedule_runs_callback_at_time(self, sim):
        seen = []
        sim.schedule(1.5, seen.append, "a")
        sim.run()
        assert seen == ["a"]
        assert sim.now == 1.5

    def test_simultaneous_events_fire_in_scheduling_order(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "first")
        sim.schedule(1.0, seen.append, "second")
        sim.schedule(1.0, seen.append, "third")
        sim.run()
        assert seen == ["first", "second", "third"]

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(3.0, seen.append, 3)
        sim.schedule_at(1.0, seen.append, 1)
        sim.run()
        assert seen == [1, 3]
        assert sim.now == 3.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_cancel_prevents_execution(self, sim):
        seen = []
        event = sim.schedule(1.0, seen.append, "x")
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_run_until_stops_clock_at_horizon(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_run_until_advances_clock_when_drained(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_bound(self, sim):
        seen = []
        for i in range(10):
            sim.schedule(float(i), seen.append, i)
        sim.run(max_events=3)
        assert len(seen) == 3

    def test_step_returns_false_when_drained(self, sim):
        assert sim.step() is False
        sim.schedule(0.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_events_executed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 5

    def test_nested_scheduling_from_callback(self, sim):
        seen = []

        def outer():
            seen.append("outer")
            sim.schedule(1.0, lambda: seen.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == ["outer", "inner"]
        assert sim.now == 2.0

    def test_event_ordering_property(self):
        a = Event(1.0, lambda: None, ())
        b = Event(2.0, lambda: None, ())
        assert a < b

    def test_same_time_ordering_by_sequence(self):
        a = Event(1.0, lambda: None, ())
        b = Event(1.0, lambda: None, ())
        assert a < b
        assert not b < a


class TestPendingCounter:
    """pending_events is an O(1) counter that stays exact under cancels."""

    def test_counts_scheduled_events(self, sim):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.pending_events == 5

    def test_cancel_decrements_immediately(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        events[0].cancel()
        events[3].cancel()
        assert sim.pending_events == 3

    def test_cancel_idempotence_counts_once(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        event.cancel()
        assert sim.pending_events == 1

    def test_sim_cancel_method(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        assert event.canceled
        assert sim.pending_events == 0

    def test_counter_exact_after_pops_skip_canceled(self, sim):
        seen = []
        keep = [sim.schedule(float(i + 1), seen.append, i) for i in range(4)]
        for event in keep[1:3]:
            event.cancel()
        sim.run()
        assert seen == [0, 3]
        assert sim.pending_events == 0

    def test_compaction_keeps_live_events(self, sim):
        """Mass-canceling (beyond the compaction threshold) must preserve
        every live event and keep the counter exact."""
        seen = []
        live = [sim.schedule(1000.0 + i, seen.append, i) for i in range(10)]
        doomed = [sim.schedule(float(i + 1), lambda: None) for i in range(500)]
        for event in doomed:
            event.cancel()
        assert sim.pending_events == len(live)
        # Internals: compaction actually shrank the heap.
        assert len(sim._heap) < 100
        sim.run()
        assert sorted(seen) == list(range(10))

    def test_interleaved_cancel_and_execute(self, sim):
        """Cancels issued from inside callbacks keep the counter exact."""
        target = sim.schedule(5.0, lambda: None)
        sim.schedule(1.0, target.cancel)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.pending_events == 0
        assert sim.now == 2.0


def legacy_run(sim, until=None, max_events=None):
    """The event loop as it was before it was folded into one pop per
    event: peek past canceled entries, check the bounds, then pop and
    execute the event at the top."""

    def peek():
        heap = sim._heap
        while heap and heap[0][2].canceled:
            heapq.heappop(heap)
            sim._canceled -= 1
        return heap[0][2] if heap else None

    executed = 0
    while True:
        nxt = peek()
        if nxt is None:
            break
        if max_events is not None and executed >= max_events:
            return
        if until is not None and nxt.time > until:
            sim.now = until
            return
        _time, _seq, event = heapq.heappop(sim._heap)
        if event.time > sim.now:
            sim.now = event.time
        sim._events_executed += 1
        event.callback(*event.args)
        executed += 1
    if until is not None and sim.now < until:
        sim.now = until


def compaction_scenario(sim, log):
    """Same-time ties, then a callback that cancels far more than
    ``_COMPACT_MIN`` pending events (compacting the heap more than once
    mid-run) and schedules more; the last event cancels the one after it,
    so the heap ends holding only a canceled entry."""
    doomed = []
    heaps = []

    def note(tag):
        log.append((sim.now, tag, sim.pending_events))

    def mass_cancel():
        note("cancel")
        heaps.append(sim._heap)
        for event in doomed:
            event.cancel()
        heaps.append(sim._heap)
        sim.schedule(0.0, note, "after-cancel")
        sim.schedule(0.5, note, "rescheduled")

    for i in range(6):
        sim.schedule(float(i), note, f"a{i}")
        sim.schedule(float(i), note, f"b{i}")
    sim.schedule(1.0, mass_cancel)
    doomed.extend(
        sim.schedule(2.0 + i / 100, note, f"doomed{i}") for i in range(200)
    )
    sim.schedule(1.5, note, "survivor")
    last = sim.schedule(8.0, note, "never")
    sim.schedule(7.0, last.cancel)
    return heaps


class TestRunLoop:
    """``run`` pops each event once; it must keep the ``(time, seq)``
    order, the exact pending counter and the ``until``/``max_events``
    stopping points of the peek-then-step loop it replaced."""

    def test_compaction_mid_run(self, sim):
        log = []
        heaps = compaction_scenario(sim, log)
        sim.run()
        # The mass cancel compacted the heap into a new list mid-run.
        assert heaps[0] is not heaps[1]
        assert len(sim._heap) == 0 and sim.pending_events == 0
        tags = [tag for _t, tag, _p in log]
        assert tags == [
            "a0", "b0", "a1", "b1", "cancel", "after-cancel", "survivor",
            "rescheduled", "a2", "b2", "a3", "b3", "a4", "b4", "a5", "b5",
        ]
        times = [t for t, _tag, _p in log]
        assert times == sorted(times)
        # pending_events seen inside each callback: 216 scheduled, minus
        # those already run, minus the 200 canceled, plus the 2 scheduled
        # by the canceling callback.  The last two are the 7.0 canceler
        # and the 8.0 event it cancels.
        assert [p for _t, _tag, p in log] == [
            215, 214, 213, 212, 211, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2,
        ]
        assert sim.events_executed == len(log) + 1

    @pytest.mark.parametrize(
        "until, max_events",
        [
            (None, None),
            (0.0, None),
            (1.0, None),
            (1.5, None),
            (2.0, None),
            (7.0, None),
            (7.5, None),
            (100.0, None),
            (None, 0),
            (None, 1),
            (None, 5),
            (None, 6),
            (None, 17),
            (None, 18),
            (3.0, 7),
            (100.0, 17),
        ],
    )
    def test_stops_where_the_peek_step_loop_stopped(self, until, max_events):
        def outcome(run):
            sim = Simulator()
            log = []
            compaction_scenario(sim, log)
            run(sim, until, max_events)
            rest = []
            sim.schedule(0.0, rest.append, "resumed")
            sim.run()
            return (
                log, sim.now, sim.events_executed, sim.pending_events, rest,
            )

        assert outcome(
            lambda sim, u, m: sim.run(until=u, max_events=m)
        ) == outcome(legacy_run)


class TestProcesses:
    def test_timeout_advances_clock(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield Timeout(2.5)
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [0.0, 2.5]

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_process_return_value_fires_done(self, sim):
        def proc():
            yield Timeout(1.0)
            return 42

        handle = sim.process(proc())
        sim.run()
        assert handle.done.fired
        assert handle.done.value == 42
        assert not handle.alive

    def test_wait_on_signal(self, sim):
        sig = Signal("go")
        trace = []

        def waiter():
            yield sig
            trace.append(sim.now)

        sim.process(waiter())
        sim.schedule(3.0, sim.fire, sig, "value")
        sim.run()
        assert trace == [3.0]

    def test_multiple_waiters_all_resume(self, sim):
        sig = Signal("go")
        resumed = []

        def waiter(i):
            yield sig
            resumed.append(i)

        for i in range(3):
            sim.process(waiter(i))
        sim.schedule(1.0, sim.fire, sig)
        sim.run()
        assert sorted(resumed) == [0, 1, 2]

    def test_waiting_on_already_fired_signal_resumes_immediately(self, sim):
        sig = Signal("early")
        trace = []

        def proc():
            yield Timeout(2.0)
            yield sig  # fired at t=1, before we got here
            trace.append(sim.now)

        sim.process(proc())
        sim.schedule(1.0, sim.fire, sig)
        sim.run()
        assert trace == [2.0]

    def test_signal_fires_once_unless_restartable(self, sim):
        sig = Signal("once")
        sim.fire(sig)
        with pytest.raises(RuntimeError):
            sig.fire()

    def test_restartable_signal_reset(self, sim):
        sig = Signal("again", restartable=True)
        sim.fire(sig)
        sig.reset()
        assert not sig.fired
        sim.fire(sig)
        assert sig.fired

    def test_reset_non_restartable_raises(self):
        sig = Signal("no")
        with pytest.raises(RuntimeError):
            sig.reset()

    def test_all_of_waits_for_every_signal(self, sim):
        sigs = [Signal(str(i)) for i in range(3)]
        trace = []

        def proc():
            yield AllOf(sigs)
            trace.append(sim.now)

        sim.process(proc())
        for i, sig in enumerate(sigs):
            sim.schedule(float(i + 1), sim.fire, sig)
        sim.run()
        assert trace == [3.0]

    def test_all_of_with_prefired_signals_resumes_now(self, sim):
        sigs = [Signal("a"), Signal("b")]
        for sig in sigs:
            sim.fire(sig)
        trace = []

        def proc():
            yield AllOf(sigs)
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [0.0]

    def test_any_of_resumes_on_first(self, sim):
        sigs = [Signal("slow"), Signal("fast")]
        got = []

        def proc():
            winner = yield AnyOf(sigs)
            got.append(winner)

        sim.process(proc())
        sim.schedule(1.0, sim.fire, sigs[1])
        sim.schedule(5.0, sim.fire, sigs[0])
        sim.run()
        assert got == [sigs[1]]

    def test_any_of_requires_signals(self):
        with pytest.raises(ValueError):
            AnyOf([])

    def test_process_waiting_on_process(self, sim):
        order = []

        def child():
            yield Timeout(2.0)
            order.append("child")
            return "done"

        def parent(handle):
            yield handle
            order.append("parent")

        handle = sim.process(child())
        sim.process(parent(handle))
        sim.run()
        assert order == ["child", "parent"]

    def test_interrupt_kills_process(self, sim):
        trace = []

        def proc():
            trace.append("start")
            yield Timeout(10.0)
            trace.append("never")

        handle = sim.process(proc())
        sim.schedule(1.0, handle.interrupt)
        sim.run()
        assert trace == ["start"]
        assert not handle.alive
        assert handle.done.fired

    def test_unsupported_yield_raises(self, sim):
        def proc():
            yield 123

        sim.process(proc())
        with pytest.raises(TypeError):
            sim.run()

    def test_two_processes_interleave_deterministically(self, sim):
        order = []

        def proc(name, delay):
            for _ in range(3):
                yield Timeout(delay)
                order.append((name, sim.now))

        sim.process(proc("a", 1.0))
        sim.process(proc("b", 1.5))
        sim.run()
        # At t=3.0 both are due; b's resume event was scheduled first
        # (at t=1.5 versus a's at t=2.0), so b fires first.
        assert order == [
            ("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0), ("a", 3.0),
            ("b", 4.5),
        ]


class TestLazyWaiters:
    def test_no_list_until_first_waiter(self):
        sig = Signal("s")
        assert sig.waiter_count == 0
        assert sig._waiters is None
        hits = []
        sig.add_waiter(hits.append)
        assert sig.waiter_count == 1
        assert sig.fire("v") == [hits.append]

    def test_fire_with_no_waiters_is_empty(self):
        sig = Signal("s", restartable=True)
        assert sig.fire(None) == ()
        sig.reset()
        assert sig.fire(None) == ()
