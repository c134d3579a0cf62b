"""Seeded inputs, open-loop timing and grid latency reconstruction."""

import asyncio

import pytest

import run
from repro.serve.http import json_response, read_request, write_response


def test_poisson_schedule_is_a_pure_function_of_the_seed():
    mix = [{"workload": "sar"}, {"workload": "hf"}]
    a = run.poisson_schedule(3, 150.0, 10.0, mix)
    assert a == run.poisson_schedule(3, 150.0, 10.0, mix)
    assert a != run.poisson_schedule(4, 150.0, 10.0, mix)
    offsets = [t for t, _ in a]
    assert offsets == sorted(offsets) and 0 < offsets[0] and offsets[-1] < 10.0
    assert 1300 < len(a) < 1700  # 150/s for 10 s


def test_serve_inputs_are_seeded_and_distinct():
    sizes = run.FULL
    golden = run.load_golden()
    mix = run.warm_mix(5, sizes, golden)
    assert mix == run.warm_mix(5, sizes, golden)
    assert mix != run.warm_mix(6, sizes, golden)
    assert len({str(d) for d in mix}) == sizes.mix
    plans = run.cold_plans(7, sizes)
    assert plans == run.cold_plans(7, sizes)
    assert plans != run.cold_plans(8, sizes)
    assert len(plans) == run.CONNECTIONS
    novel = [doc for plan in plans for kind, doc in plan if kind == "novel"]
    keys = {(d["workload"], d["policy"], d["scheme"], d["config"]["delta"],
             d["config"]["theta"]) for d in novel}
    assert len(novel) == len(keys) == sizes.novel
    # Every grid point appears once before any appears twice.
    bases = [(d["workload"], d["policy"], d["scheme"]) for d in novel]
    assert len(set(bases)) == len(run.paper_grid())
    for plan in plans:
        done = []
        for kind, doc in plan:
            if kind == "repeat":
                assert doc in done  # a completed point of the same client
            else:
                done.append(doc)
        assert sum(k == "repeat" for k, _ in plan) == len(done) // 2


def test_point_latencies_follow_the_dispatch_slots():
    # Serial: each point starts when the previous one finishes.
    assert run.point_latencies(0, [10, 30, 60], 1) == pytest.approx(
        [10e-9, 20e-9, 30e-9])
    # Two slots: points 0 and 1 start at 0; point 2 takes the first slot
    # to free up (t=10), point 3 the next (t=25).
    lat = run.point_latencies(0, [25, 10, 40, 70], 2)
    assert lat == pytest.approx([25e-9, 10e-9, 30e-9, 45e-9])


class StallingServer:
    """Answers every request at once, except the first, which it holds."""

    def __init__(self, stall: float):
        self.stall = stall
        self.seen = 0

    async def handle(self, reader, writer):
        while (request := await read_request(reader)) is not None:
            self.seen += 1
            if self.seen == 1:
                await asyncio.sleep(self.stall)
            await write_response(writer, json_response(200, {"path": request.path}))
        writer.close()


async def probe(client, doc):
    status, _h, body = await client.request("GET", f"/{doc['n']}")
    return run.Outcome(ok=status == 200 and body["path"] == f"/{doc['n']}")


def test_open_loop_times_from_the_due_time():
    async def scenario():
        fake = StallingServer(stall=0.3)
        server = await asyncio.start_server(fake.handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        schedule = [(0.0, {"n": 0}), (0.02, {"n": 1}), (0.04, {"n": 2})]
        try:
            return await run.open_loop("127.0.0.1", port, schedule,
                                       connections=1, request=probe)
        finally:
            server.close()
            await server.wait_closed()

    records = asyncio.run(scenario())
    assert [r.outcome.ok for r in records] == [True, True, True]
    # The generator released every request on time...
    assert max(r.lag for r in records) < 0.05
    # ...so the stall shows in the requests queued behind it, which were
    # sent late but are timed from when they were due.
    assert records[0].latency >= 0.29
    assert records[1].latency >= 0.26
    assert records[2].latency >= 0.24
    assert records[2].done - records[2].dispatched >= 0.2
