"""Crash-safety tests for the server's admission WAL.

The contract under test: an admission record is fsynced *before* the 202
leaves the server, so every admission a client ever hears about can be
replayed — ``recover=True`` re-enqueues accepted-but-unfinished jobs
under their original ids, and a warm content-addressed cache turns the
replay into hits (bit-identical results, zero re-simulation).

Crashes are simulated in-process by :func:`_crash`: tear the server down
with no drain and no queue join — the WAL's fsynced lines are all that
survive, which is exactly the SIGKILL situation.
"""

import asyncio
import threading

import pytest

from repro.exec.journal import (
    DurableJournal,
    load_wal,
    point_to_doc,
    wal_admit,
    wal_header,
    wal_outcome,
)
from repro.experiments import ExperimentConfig
from repro.serve import SchedulingServer, ServerConfig
from repro.serve.http import HttpClient
from repro.serve.server import DEFAULT_TENANT, parse_point

TINY = ExperimentConfig(workload_scale=0.05)
SUBMIT_SAR = {"workload": "sar", "policy": "simple", "scheme": False}


def _config(tmp_path, wal, **overrides):
    overrides.setdefault("port", 0)
    overrides.setdefault("cache_root", tmp_path / "cache")
    overrides.setdefault("base_config", TINY)
    return ServerConfig(wal_path=wal, **overrides)


async def _crash(server: SchedulingServer) -> None:
    """Kill a server the unclean way: no drain, no outcome flush."""
    if server._server is not None:
        server._server.close()
        await server._server.wait_closed()
    for task in (
        server._workers
        + list(server._connections)
        + list(server._wal_tasks)
    ):
        task.cancel()
    if server._wal is not None:
        server._wal.close()
        server._wal = None


async def _await_done(client: HttpClient, job_id: str) -> dict:
    for _ in range(40):
        status, _h, body = await client.request(
            "GET", f"/v1/jobs/{job_id}?wait=30"
        )
        assert status == 200
        if body["job"]["state"] in ("done", "failed"):
            return body["job"]
    raise AssertionError(f"job {job_id} never reached a terminal state")


class TestAdmissionDurability:
    def test_admit_record_durable_before_202(self, tmp_path):
        """By the time the 202 is observable, the admit line is on disk
        — even though the job hasn't run (the batch gate is closed)."""
        wal = tmp_path / "wal.jsonl"
        gate = threading.Event()
        holder = {}

        def gated(tenant, points):
            gate.wait(30)
            return holder["server"]._run_batch(tenant, points)

        async def scenario():
            server = SchedulingServer(
                _config(tmp_path, wal), run_batch_fn=gated
            )
            holder["server"] = server
            await server.start()
            client = HttpClient("127.0.0.1", server.port)
            try:
                status, _h, body = await client.request(
                    "POST", "/v1/submit", doc=SUBMIT_SAR
                )
                assert status == 202
                job_id = body["job"]["id"]

                _header, jobs = load_wal(wal)
                assert job_id in jobs
                assert jobs[job_id].unfinished
                assert jobs[job_id].point_doc["workload"] == "sar"

                # An idempotent resubmission coalesces: no second admit.
                status, _h2, body2 = await client.request(
                    "POST", "/v1/submit", doc=SUBMIT_SAR
                )
                assert status == 202
                assert body2["job"]["coalesced"] is True
                assert body2["job"]["id"] == job_id
                _header, jobs = load_wal(wal)
                assert len(jobs) == 1

                gate.set()
                done = await _await_done(client, job_id)
                assert done["state"] == "done"
            finally:
                await client.close()
                await server.stop()

            # A clean stop flushed the outcome: nothing left to replay.
            _header, jobs = load_wal(wal)
            assert jobs[job_id].state == "done"
            assert not any(j.unfinished for j in jobs.values())

        asyncio.run(scenario())

    def test_status_and_metrics_expose_wal(self, tmp_path):
        async def scenario():
            server = SchedulingServer(_config(tmp_path, tmp_path / "w.jsonl"))
            await server.start()
            client = HttpClient("127.0.0.1", server.port)
            try:
                _s, _h, doc = await client.request("GET", "/v1/status")
                assert doc["wal"] is True
                assert doc["chaos"] is False
                _s, _h, snap = await client.request("GET", "/v1/metrics")
                assert snap["counters"]["server.wal.appends"] == 0
                assert snap["counters"]["server.recovery.replayed"] == 0
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "config",
        [
            {"workload_scale": -1.0},
            {"workload_scale": 0.0},
            {"n_clients": 0},
            {"n_ionodes": 0},
            {"delta": -1},
            {"theta": 0},
            {"granularity": 0},
            {"stripe_size": 0},
            {"max_slack": -1},
            {"cache_bytes": -1},
            {"buffer_capacity_blocks": 0},
        ],
    )
    def test_out_of_range_config_is_400_before_the_wal(self, tmp_path,
                                                       config):
        """A config the run could never use is refused at parse time:
        a 400, and nothing admitted to the WAL."""
        wal = tmp_path / "wal.jsonl"

        async def scenario():
            server = SchedulingServer(_config(tmp_path, wal))
            await server.start()
            client = HttpClient("127.0.0.1", server.port)
            try:
                status, _h, body = await client.request(
                    "POST", "/v1/submit", doc=dict(SUBMIT_SAR, config=config)
                )
                assert status == 400
                assert "bad config value" in body["error"]
                _s, _h, snap = await client.request("GET", "/v1/metrics")
                assert snap["counters"]["server.wal.appends"] == 0
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())
        _header, jobs = load_wal(wal)
        assert jobs == {}


class TestRecovery:
    def test_sigkill_then_recover_completes_admitted_job(self, tmp_path):
        """The tentpole: admit, crash before the batch runs, restart
        with recover=True — the job comes back under its original id
        and completes."""
        wal = tmp_path / "wal.jsonl"
        gate = threading.Event()

        def stalled(tenant, points):
            gate.wait(30)
            raise RuntimeError("crash window held the batch")

        async def scenario():
            server1 = SchedulingServer(
                _config(tmp_path, wal), run_batch_fn=stalled
            )
            await server1.start()
            client1 = HttpClient("127.0.0.1", server1.port)
            status, _h, body = await client1.request(
                "POST", "/v1/submit", doc=SUBMIT_SAR
            )
            assert status == 202
            job_id = body["job"]["id"]
            await client1.close()
            await _crash(server1)
            gate.set()  # unblock the orphaned batch thread
            for worker in server1._workers:
                try:
                    await worker
                except (asyncio.CancelledError, RuntimeError):
                    pass

            _header, jobs = load_wal(wal)
            assert jobs[job_id].unfinished  # the promise outlived the crash

            server2 = SchedulingServer(
                _config(tmp_path, wal, recover=True)
            )
            await server2.start()
            client2 = HttpClient("127.0.0.1", server2.port)
            try:
                assert (
                    server2.metrics.counter("server.recovery.replayed").value
                    == 1
                )
                done = await _await_done(client2, job_id)
                assert done["state"] == "done"
                assert done["id"] == job_id
                assert done["result"]["energy_joules"] > 0
            finally:
                await client2.close()
                await server2.stop()

            _header, jobs = load_wal(wal)
            assert jobs[job_id].state == "done"

        asyncio.run(scenario())

    def test_recovered_cached_job_is_served_without_resimulation(
        self, tmp_path
    ):
        """Replay against a warm cache: the recovered job completes as a
        hit — bit-identical by construction, zero simulations."""
        async def scenario():
            # Pass 1: compute the point normally, warming the cache.
            server1 = SchedulingServer(_config(tmp_path, None))
            await server1.start()
            client1 = HttpClient("127.0.0.1", server1.port)
            try:
                _s, _h, body = await client1.request(
                    "POST", "/v1/submit", doc=SUBMIT_SAR
                )
                first = await _await_done(client1, body["job"]["id"])
                assert first["state"] == "done"
            finally:
                await client1.close()
                await server1.stop()

            # Hand-craft a WAL claiming that point was admitted but
            # never finished — the post-crash state.
            wal = tmp_path / "crash.jsonl"
            job_id = f"j000009-{first['digest'][:12]}"
            with DurableJournal(wal, header=wal_header()) as journal:
                journal.append(
                    wal_admit(
                        job_id,
                        "default",
                        first["digest"],
                        first["label"],
                        point_to_doc("sar", "simple", False, TINY),
                    )
                )

            server2 = SchedulingServer(_config(tmp_path, wal, recover=True))
            await server2.start()
            client2 = HttpClient("127.0.0.1", server2.port)
            try:
                done = await _await_done(client2, job_id)
                assert done["state"] == "done"
                assert done["result"] == first["result"]  # bit-identical
                _s, _h, snap = await client2.request("GET", "/v1/metrics")
                assert snap["counters"]["server.simulated"] == 0
                assert snap["counters"]["server.cache_hits"] == 1
                assert snap["counters"]["server.recovery.replayed"] == 1
            finally:
                await client2.close()
                await server2.stop()

        asyncio.run(scenario())

    def test_clean_wal_replays_nothing_and_resumes_ids(self, tmp_path):
        wal = tmp_path / "wal.jsonl"

        async def scenario():
            server1 = SchedulingServer(_config(tmp_path, wal))
            await server1.start()
            client1 = HttpClient("127.0.0.1", server1.port)
            try:
                _s, _h, body = await client1.request(
                    "POST", "/v1/submit", doc=SUBMIT_SAR
                )
                first_id = body["job"]["id"]
                await _await_done(client1, first_id)
            finally:
                await client1.close()
                await server1.stop()

            server2 = SchedulingServer(_config(tmp_path, wal, recover=True))
            await server2.start()
            client2 = HttpClient("127.0.0.1", server2.port)
            try:
                replayed = server2.metrics.counter(
                    "server.recovery.replayed"
                ).value
                skipped = server2.metrics.counter(
                    "server.recovery.skipped"
                ).value
                assert (replayed, skipped) == (0, 1)
                # The sequence resumed past the recovered id: no reuse.
                _s, _h, body = await client2.request(
                    "POST",
                    "/v1/submit",
                    doc={"workload": "hf", "policy": "simple"},
                )
                assert body["job"]["id"] > first_id
            finally:
                await client2.close()
                await server2.stop()

        asyncio.run(scenario())

    def test_populated_wal_without_recover_is_refused(self, tmp_path):
        wal = tmp_path / "wal.jsonl"
        with DurableJournal(wal, header=wal_header()):
            pass

        async def scenario():
            server = SchedulingServer(_config(tmp_path, wal))
            with pytest.raises(ValueError, match="recover"):
                await server.start()

        asyncio.run(scenario())

    def test_recover_without_wal_path_is_a_config_error(self, tmp_path):
        with pytest.raises(ValueError, match="wal_path"):
            ServerConfig(recover=True)

    def test_wide_job_ids_parse_and_advance_the_sequence(self, tmp_path):
        """Ids past j999999 widen (``j1000000-...``); recovery must
        still parse them or a restart reissues colliding ids."""
        wal = tmp_path / "wal.jsonl"
        digest = "0" * 64
        wide_id = f"j1000000-{digest[:12]}"
        with DurableJournal(wal, header=wal_header()) as journal:
            journal.append(
                wal_admit(
                    wide_id,
                    DEFAULT_TENANT,
                    digest,
                    "sar/simple",
                    point_to_doc("sar", "simple", False, TINY),
                )
            )
            journal.append(wal_outcome(wide_id, digest, "done"))

        async def scenario():
            server = SchedulingServer(_config(tmp_path, wal, recover=True))
            await server.start()
            try:
                assert server._seq == 1000000
                job, _coalesced = await server.submit(
                    DEFAULT_TENANT, parse_point(dict(SUBMIT_SAR), TINY)
                )
                assert job.id.startswith("j1000001-")
            finally:
                await server.stop()

        asyncio.run(scenario())


class _GatedJournal:
    """Journal wrapper whose append blocks on a gate (and can fail), so
    tests can hold a submission inside its WAL-fsync window."""

    def __init__(self, inner: DurableJournal, gate: threading.Event):
        self.inner = inner
        self.gate = gate
        self.fail = False

    def append(self, record):
        if not self.gate.wait(30):
            raise AssertionError("test gate never released")
        if self.fail:
            raise OSError("simulated WAL device failure")
        return self.inner.append(record)

    def close(self):
        self.inner.close()


class TestInFlightAdmissions:
    """The window between _admit and the fsync completing: coalescers,
    drains, and cancellations must all respect the durability promise."""

    def test_coalesced_202_waits_for_primary_fsync(self, tmp_path):
        """A duplicate that coalesces onto an admission whose WAL write
        is still in flight must not return before the record is on
        disk — its 202 carries the same promise as the primary's."""
        wal = tmp_path / "wal.jsonl"

        async def scenario():
            server = SchedulingServer(_config(tmp_path, wal))
            await server.start()
            gate = threading.Event()
            server._wal = _GatedJournal(server._wal, gate)
            point = parse_point(dict(SUBMIT_SAR), TINY)
            try:
                primary = asyncio.create_task(
                    server.submit(DEFAULT_TENANT, point)
                )
                await asyncio.sleep(0.05)  # primary is inside the fsync
                dup = asyncio.create_task(
                    server.submit(DEFAULT_TENANT, point)
                )
                await asyncio.sleep(0.05)
                assert not primary.done()
                assert not dup.done()  # held until the record is durable
                gate.set()
                job, coalesced = await primary
                dup_job, dup_coalesced = await dup
                assert (coalesced, dup_coalesced) == (False, True)
                assert dup_job is job
                _header, jobs = load_wal(wal)
                assert job.id in jobs  # durable before either returned
            finally:
                gate.set()
                await server.stop()

        asyncio.run(scenario())

    def test_wal_failure_fails_coalescers_and_withdraws(self, tmp_path):
        """A failed append withdraws the admission for *everyone*: the
        primary re-raises, coalescers get a 500-shaped error, and the
        reservation plus the phantom _active entry are rolled back."""
        async def scenario():
            server = SchedulingServer(
                _config(tmp_path, tmp_path / "wal.jsonl")
            )
            await server.start()
            gate = threading.Event()
            gated = _GatedJournal(server._wal, gate)
            gated.fail = True
            server._wal = gated
            point = parse_point(dict(SUBMIT_SAR), TINY)
            try:
                primary = asyncio.create_task(
                    server.submit(DEFAULT_TENANT, point)
                )
                await asyncio.sleep(0.05)
                dup = asyncio.create_task(
                    server.submit(DEFAULT_TENANT, point)
                )
                await asyncio.sleep(0.05)
                gate.set()
                with pytest.raises(OSError):
                    await primary
                with pytest.raises(RuntimeError, match="withdrawn"):
                    await dup
                assert server._active == {}
                assert server._pending_enqueues == 0
                assert server._enqueues_idle.is_set()
                # Once the WAL heals, the same point admits fresh.
                gated.fail = False
                job, coalesced = await server.submit(DEFAULT_TENANT, point)
                assert coalesced is False
            finally:
                gate.set()
                await server.stop()

        asyncio.run(scenario())

    def test_drain_waits_for_inflight_admission(self, tmp_path):
        """A submission that passed admission before the drain began but
        is still awaiting its fsync must be processed, not stranded —
        a clean drain leaves a WAL with nothing unfinished."""
        wal = tmp_path / "wal.jsonl"

        async def scenario():
            server = SchedulingServer(_config(tmp_path, wal))
            await server.start()
            gate = threading.Event()
            server._wal = _GatedJournal(server._wal, gate)
            point = parse_point(dict(SUBMIT_SAR), TINY)
            pending = asyncio.create_task(
                server.submit(DEFAULT_TENANT, point)
            )
            await asyncio.sleep(0.05)  # inside the fsync window
            server.request_shutdown()
            await asyncio.sleep(0.05)
            assert not server._stopped.is_set()  # drain is waiting on it
            gate.set()
            job, _coalesced = await pending
            await server.wait_stopped()
            assert job.state == "done"  # processed, not stranded
            _header, jobs = load_wal(wal)
            assert not any(j.unfinished for j in jobs.values())
            await server.stop()

        asyncio.run(scenario())

    def test_cancelled_submit_withdraws_reservation(self, tmp_path):
        """Cancellation mid-append (connection teardown) must roll back
        like a failure: no leaked reservation, no phantom job that
        later duplicates coalesce onto but that never runs."""
        async def scenario():
            server = SchedulingServer(
                _config(tmp_path, tmp_path / "wal.jsonl")
            )
            await server.start()
            gate = threading.Event()
            server._wal = _GatedJournal(server._wal, gate)
            point = parse_point(dict(SUBMIT_SAR), TINY)
            task = asyncio.create_task(server.submit(DEFAULT_TENANT, point))
            await asyncio.sleep(0.05)  # inside the fsync window
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert server._active == {}
            assert len(server._jobs) == 0
            assert server._pending_enqueues == 0
            assert server._enqueues_idle.is_set()
            gate.set()  # release the orphaned fsync thread
            await server.stop()

        asyncio.run(scenario())
