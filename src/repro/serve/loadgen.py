"""Synthetic load harness for the scheduling service.

The harness follows the classic policy-benchmark shape (configure →
warm → timed burst → metrics before/after): it first submits each point
of the workload *mix* once and waits for completion (warming the
tenant's cache so the timed phase measures serving, not simulation),
snapshots the server's ``server.*`` metrics, then drives ``clients``
concurrent clients — each holding one persistent keep-alive connection —
through ``requests`` submissions apiece, long-polling every job to
completion and validating each returned result through
:func:`~repro.exec.serialize.run_result_from_dict` (a torn or
foreign-schema payload counts as a failure, not a silent success).
A final metrics snapshot is diffed against the first so the report can
attribute exactly what the burst did: cache hits vs simulations,
coalesced submissions, peak queue depth.

Backpressure is part of the protocol, not a failure: a ``429`` makes
the client sleep the server's ``Retry-After`` (capped, so tests stay
fast) and resubmit; only exhausted retries, transport errors, failed
jobs, and invalid results count as failed requests.

Resilience is accounted separately from failure: the report's
``retried`` counts transport-level retries the :class:`HttpClient`
absorbed, ``deduplicated`` counts 202s that coalesced onto an
already-admitted job (digest idempotency — what makes those retries
safe), and ``lost`` counts admissions whose terminal state was never
observed.  ``lost`` is the one the kill-recover harness pins to zero:
a crash may delay an accepted job, never lose it.

The mix is sampled deterministically per (client, request) index, so two
runs of the same configuration issue the same request stream.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..exec.serialize import run_result_from_dict
from ..experiments.config import ExperimentConfig
from .http import HttpClient
from .server import DEFAULT_TENANT, SchedulingServer, ServerConfig

__all__ = [
    "LoadgenConfig",
    "default_mix",
    "run_loadgen",
    "run_inprocess_loadtest",
]

#: Cap on honoring Retry-After so a saturated queue cannot stall a
#: bounded test run for the server's full (up to 60 s) estimate.
_MAX_RETRY_SLEEP = 2.0

#: Attempts per request before a persistent 429 counts as a failure.
_MAX_SUBMIT_ATTEMPTS = 20


def default_mix(
    apps: tuple[str, ...] = ("sar", "hf"),
    policy: str = "simple",
    schemes: tuple[bool, ...] = (False, True),
) -> list[dict[str, Any]]:
    """The default workload mix: every (app, scheme) combination."""
    return [
        {"workload": app, "policy": policy, "scheme": scheme}
        for app in apps
        for scheme in schemes
    ]


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-test run against a scheduling server."""

    host: str = "127.0.0.1"
    port: int = 8177
    clients: int = 8
    requests: int = 4  # per client
    mix: tuple[dict, ...] = field(
        default_factory=lambda: tuple(default_mix())
    )
    tenant: str = DEFAULT_TENANT
    #: Long-poll ceiling per job-status request (seconds).
    wait: float = 30.0
    #: Warm the cache (submit the mix once, await completion) first.
    warm: bool = True

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1: {self.clients}")
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1: {self.requests}")
        if not self.mix:
            raise ValueError("the workload mix must not be empty")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(q * len(sorted_values) + 0.999999))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass
class _ClientTally:
    """One client's outcomes (merged into the report at the end)."""

    ok: int = 0
    failed: int = 0
    rejected_retries: int = 0  # 429s honored and resubmitted
    retried: int = 0  # transport-level retries the HttpClient absorbed
    deduplicated: int = 0  # 202s that coalesced onto an existing job
    #: Admitted (202 received) but terminal state never observed — the
    #: kill-recover harness asserts this stays zero: a crash may delay
    #: an accepted job, never lose it.
    lost: int = 0
    latencies_s: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


async def _drive_request(
    client: HttpClient, cfg: LoadgenConfig, doc: dict, tally: _ClientTally
) -> None:
    """Submit one point, ride it to terminal state, validate the result.

    Transport failures that outlive the client's own retries are tallied
    here — as ``failed`` always, and *additionally* as ``lost`` when the
    server had already admitted the job (a 202 is a promise; losing one
    is the failure mode the WAL exists to prevent).
    """
    started = time.monotonic()  # det: load-harness latency clock, not simulated state
    admitted: list = []
    ok_before = tally.ok
    try:
        await _submit_and_await(client, cfg, doc, tally, admitted)
    except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
        tally.failed += 1
        if admitted:
            tally.lost += 1
        tally.errors.append(f"transport: {type(exc).__name__}: {exc}")
        return
    if tally.ok > ok_before:
        tally.latencies_s.append(time.monotonic() - started)  # det: load-harness latency clock, not simulated state


async def _submit_and_await(
    client: HttpClient,
    cfg: LoadgenConfig,
    doc: dict,
    tally: _ClientTally,
    admitted: list,
) -> None:
    """The request body of :func:`_drive_request`; appends the job id to
    ``admitted`` the moment a 202 lands so the caller can classify a
    later transport failure as a *lost* admission."""
    headers = {"X-Repro-Tenant": cfg.tenant}
    job_id: Optional[str] = None
    for _attempt in range(_MAX_SUBMIT_ATTEMPTS):
        status, resp_headers, body = await client.request(
            "POST", "/v1/submit", doc=doc, headers=headers
        )
        if status == 202:
            job_id = body["job"]["id"]
            admitted.append(job_id)
            if body["job"].get("coalesced"):
                tally.deduplicated += 1
            break
        if status == 429:
            tally.rejected_retries += 1
            retry_after = float(resp_headers.get("retry-after", "1"))
            await asyncio.sleep(min(retry_after, _MAX_RETRY_SLEEP))
            continue
        tally.failed += 1
        tally.errors.append(f"submit -> {status}: {body}")
        return
    if job_id is None:
        tally.failed += 1
        tally.errors.append("submit: queue stayed full through every retry")
        return

    while True:
        status, _h, body = await client.request(
            "GET", f"/v1/jobs/{job_id}?wait={cfg.wait:g}", headers=headers
        )
        if status != 200:
            tally.failed += 1
            tally.lost += 1  # admitted, but we can no longer see it
            tally.errors.append(f"poll {job_id} -> {status}: {body}")
            return
        state = body["job"]["state"]
        if state == "done":
            break
        if state == "failed":
            tally.failed += 1
            tally.errors.append(
                f"job {job_id} failed: {body['job'].get('error')}"
            )
            return

    try:
        run_result_from_dict(body["job"]["result"])
    except (ValueError, KeyError, TypeError) as exc:
        tally.failed += 1
        tally.errors.append(f"job {job_id} returned invalid result: {exc}")
        return
    tally.ok += 1


async def _client_worker(
    index: int, cfg: LoadgenConfig, tally: _ClientTally
) -> None:
    client = HttpClient(cfg.host, cfg.port)
    try:
        for j in range(cfg.requests):
            # Deterministic mix sampling: the (client, request) index
            # alone picks the point, so reruns issue the same stream.
            doc = cfg.mix[(index + j * cfg.clients) % len(cfg.mix)]
            await _drive_request(client, cfg, dict(doc), tally)
    finally:
        tally.retried += client.transport_retries
        await client.close()


async def _fetch_metrics(cfg: LoadgenConfig) -> dict[str, Any]:
    client = HttpClient(cfg.host, cfg.port)
    try:
        status, _h, body = await client.request("GET", "/v1/metrics")
        if status != 200:
            raise RuntimeError(f"/v1/metrics -> {status}")
        return body
    finally:
        await client.close()


async def _warm(cfg: LoadgenConfig) -> int:
    """Submit every mix point once and await completion; returns the
    number of warm submissions that reached a terminal state cleanly."""
    tally = _ClientTally()
    client = HttpClient(cfg.host, cfg.port)
    try:
        for doc in cfg.mix:
            await _drive_request(client, cfg, dict(doc), tally)
    finally:
        await client.close()
    if tally.failed:
        raise RuntimeError(
            f"warm phase failed for {tally.failed} point(s): "
            f"{'; '.join(tally.errors[:3])}"
        )
    return tally.ok


def _counter_delta(
    before: dict[str, Any], after: dict[str, Any]
) -> dict[str, int]:
    b, a = before.get("counters", {}), after.get("counters", {})
    return {name: a.get(name, 0) - b.get(name, 0) for name in sorted(a)}


async def run_loadgen(cfg: LoadgenConfig) -> dict[str, Any]:
    """Run the full harness against a live server; returns the report.

    The report is JSON-able and schema-stable: every key is present on
    every run (zero/empty on clean ones), so CI can assert on it
    directly.
    """
    warmed = await _warm(cfg) if cfg.warm else 0
    before = await _fetch_metrics(cfg)

    tallies = [_ClientTally() for _ in range(cfg.clients)]
    started = time.monotonic()  # det: load-harness wall-clock phase timer, not simulated state
    await asyncio.gather(
        *(
            _client_worker(i, cfg, tallies[i])
            for i in range(cfg.clients)
        )
    )
    elapsed = time.monotonic() - started  # det: load-harness wall-clock phase timer, not simulated state

    after = await _fetch_metrics(cfg)
    delta = _counter_delta(before, after)

    ok = sum(t.ok for t in tallies)
    failed = sum(t.failed for t in tallies)
    latencies = sorted(
        lat for t in tallies for lat in t.latencies_s
    )
    total = cfg.clients * cfg.requests
    hits = delta.get("server.cache_hits", 0)
    sims = delta.get("server.simulated", 0)
    resolved = hits + sims
    return {
        "clients": cfg.clients,
        "requests_per_client": cfg.requests,
        "requests": total,
        "ok": ok,
        "failed": failed,
        "rejected_retries": sum(t.rejected_retries for t in tallies),
        "retried": sum(t.retried for t in tallies),
        "deduplicated": sum(t.deduplicated for t in tallies),
        "lost": sum(t.lost for t in tallies),
        "warmed": warmed,
        "seconds": round(elapsed, 6),
        "rps": round(total / elapsed, 3) if elapsed > 0 else 0.0,
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50) * 1e3, 3),
            "p99": round(_percentile(latencies, 0.99) * 1e3, 3),
            "mean": round(
                sum(latencies) / len(latencies) * 1e3 if latencies else 0.0,
                3,
            ),
            "max": round(latencies[-1] * 1e3 if latencies else 0.0, 3),
        },
        "cache_hit_rate": round(hits / resolved, 6) if resolved else 0.0,
        "batched": delta.get("server.batched", 0),
        "simulated": sims,
        "cache_hits": hits,
        "queue_depth_peak": after.get("gauges", {}).get(
            "server.queue_depth_peak", 0.0
        ),
        "errors": sorted(
            err for t in tallies for err in t.errors
        )[:10],
    }


async def run_inprocess_loadtest(
    base_config: ExperimentConfig,
    cache_root: Path,
    clients: int = 8,
    requests: int = 4,
    mix: Optional[list[dict[str, Any]]] = None,
    server_config: Optional[ServerConfig] = None,
    warm: bool = True,
) -> dict[str, Any]:
    """Spin up a server on an ephemeral port, load-test it, tear it down.

    This is the path ``repro loadtest`` (without ``--url``) uses: one
    process, one event loop, real sockets on localhost — the exact wire
    path of a remote client, minus the network.
    """
    srv_cfg = server_config or ServerConfig(
        port=0,
        cache_root=Path(cache_root),
        base_config=base_config,
    )
    server = SchedulingServer(srv_cfg)
    await server.start()
    try:
        cfg = LoadgenConfig(
            host=srv_cfg.host,
            port=server.port,
            clients=clients,
            requests=requests,
            mix=tuple(mix) if mix is not None else tuple(default_mix()),
            warm=warm,
        )
        return await run_loadgen(cfg)
    finally:
        await server.stop()
