"""The repository benchmark: paper-figure grids and scheduling-service traffic.

    python3 bench/run.py [--workload W] [--seed S] [--seconds N]
                         [--trace 0|1 | --traced] [--smoke] [--out DIR]
    python3 bench/run.py --write-golden

Each workload runs the program in fresh processes from ``src/`` and
checks every simulated result against ``bench/golden.json``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones).  A fuller record, with the host's facts, goes to
``bench/out/``.  Without ``--workload`` every workload runs in turn.
See ``bench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Optional

from common import host_facts, latency_summary, percentile
from ledger import DES_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("fig-scheme", "fig-plain", "serve-warm", "serve-cold")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  Every workload
#: reports all of them; a layer a workload never enters reads 0.
PER_LAYER = {
    "workloads.build_s": "s",
    "ir.trace_s": "s",
    "ir.traces": "count",
    "core.compile_s": "s",
    "core.compiles": "count",
    "core.accesses": "count",
    "analysis.verify_s": "s",
    "runtime.session_build_s": "s",
    "runtime.session_run_s": "s",
    "runtime.sessions": "count",
    **{f"{layer}.share": "fraction" for layer in DES_LAYERS},
    **{f"{layer}.des_s": "s" for layer in DES_LAYERS},
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "disk.requests": "count",
    "disk.spin_ups": "count",
    "disk.rpm_steps": "count",
    "storage.cache_hit_ratio": "fraction",
    "storage.ionode_reads": "count",
    "net.transfers": "count",
    "runtime.prefetches": "count",
    "runtime.prefetch_hit_ratio": "fraction",
    "runtime.sync_reads": "count",
    "model.energy_j": "J",
    "model.exec_time_s": "sim_s",
    "metrics.distil_s": "s",
    "exec.serialize_s": "s",
    "exec.cache_lookup_s": "s",
    "exec.cache_store_s": "s",
    "exec.cache_hits": "count",
    "exec.cache_misses": "count",
    "serve.submit_ms.p50": "ms",
    "serve.submit_ms.p99": "ms",
    "serve.poll_ms.p50": "ms",
    "serve.poll_ms.p99": "ms",
    "serve.wal_append_s": "s",
    "serve.wal_appends": "count",
    "serve.batch_s": "s",
    "serve.batches": "count",
    "serve.parse_s": "s",
    "serve.queue_depth_peak": "count",
    "serve.rejected": "count",
    "serve.deduplicated": "count",
    "serve.cache_hit_ratio": "fraction",
    "serve.simulated": "count",
    "loadgen.lag_ms.p99": "ms",
    "tail_ms": "ms",
    "trace.overhead": "fraction",
    "trace.coverage": "fraction",
}

#: Boundary span (``launch.py``) behind each per-layer self time.
SPAN_METRICS = {
    "workloads.build_s": "workloads.build",
    "ir.trace_s": "ir.trace",
    "core.compile_s": "core.compile",
    "analysis.verify_s": "analysis.verify",
    "runtime.session_build_s": "runtime.session_build",
    "runtime.session_run_s": "runtime.session_run",
    "metrics.distil_s": "metrics.distil",
    "exec.serialize_s": "exec.serialize",
    "exec.cache_lookup_s": "exec.cache_lookup",
    "exec.cache_store_s": "exec.cache_store",
    "serve.wal_append_s": "serve.wal_append",
    "serve.batch_s": "serve.batch",
    "serve.parse_s": "serve.parse",
}

#: Ledger counters reported as they are.
COUNT_METRICS = (
    "ir.traces", "core.compiles", "core.accesses", "runtime.sessions",
    "sim.events", "disk.requests", "disk.spin_ups", "disk.rpm_steps",
    "storage.ionode_reads", "net.transfers", "runtime.prefetches",
    "runtime.sync_reads", "exec.cache_hits", "exec.cache_misses",
    "serve.wal_appends", "serve.batches",
)

#: Load comes from this process over at most this many connections (or
#: pool workers): the host this benchmark is sized for has two CPUs.
CONNECTIONS = 2

#: Closed-loop capacity counts only while its p99 stays under this.
CAPACITY_P99_MS = 50.0

CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does."""

    scheme_scale: float  # fig-scheme grid (fig12d)
    plain_scale: float  # fig-plain grid (fig12c)
    warm_scale: float  # serve-warm server
    cold_scale: float  # serve-cold server
    mix: int  # points in the serve-warm mix
    rate: float  # open-loop arrivals per second
    open_share: float  # share of --seconds the open loop lasts
    closed_per_client: int  # serve-warm closed-loop requests per client
    novel: int  # serve-cold novel requests (half as many repeats ride along)
    min_reps: int  # fig grid repetitions, at least
    launches: int  # server spawns that setup_s takes the median of


FULL = Sizes(
    scheme_scale=0.05, plain_scale=0.1, warm_scale=0.05, cold_scale=0.05,
    mix=16, rate=150.0, open_share=0.6, closed_per_client=600, novel=60,
    min_reps=2, launches=3,
)
SMOKE = Sizes(
    scheme_scale=0.01, plain_scale=0.02, warm_scale=0.01, cold_scale=0.01,
    mix=4, rate=40.0, open_share=0.5, closed_per_client=20, novel=8,
    min_reps=1, launches=2,
)


# ----------------------------------------------------------------------
# Inputs (pure functions of the seed)
# ----------------------------------------------------------------------
def paper_grid() -> list[dict[str, Any]]:
    """Every point of the paper's Figures 12-13 grid as a submission:
    six apps x (default and the four policies) x scheme off/on."""
    from repro.experiments import APPS, POLICIES

    return [
        {"workload": app, "policy": policy, "scheme": scheme}
        for app in APPS
        for policy in ("default",) + tuple(POLICIES)
        for scheme in (False, True)
    ]


def warm_mix(
    seed: int, sizes: Sizes, golden: dict[str, dict]
) -> list[dict[str, Any]]:
    """A seeded serve-warm mix, stratified by result size.

    Serving a cached point costs more the larger its result document
    (2 to 26 KB across the grid at scale 0.05), so the grid is sorted by
    that size, as ``golden.json`` records it, and cut into ``sizes.mix``
    strata; the seed draws one point from each.  Every seed's mix then
    carries about the same payload.
    """
    from repro.exec import point_digest
    from repro.experiments import default_config

    cfg = default_config(scale=sizes.warm_scale)

    def size(doc: dict) -> int:
        digest = point_digest(cfg, doc["workload"], doc["policy"], doc["scheme"])
        return golden[digest]["bytes"]

    grid = sorted(paper_grid(), key=size)
    rng = random.Random(f"serve-warm:{seed}")
    n, k = len(grid), sizes.mix
    return [rng.choice(grid[i * n // k:(i + 1) * n // k]) for i in range(k)]


def poisson_schedule(
    seed: int, rate: float, duration: float, mix: list[dict]
) -> list[tuple[float, dict]]:
    """Open-loop arrivals: ``(due offset in seconds, submission)``."""
    rng = random.Random(f"open-loop:{seed}")
    schedule, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            return schedule
        schedule.append((t, mix[rng.randrange(len(mix))]))


def cold_plans(seed: int, sizes: Sizes) -> list[list[tuple[str, dict]]]:
    """One closed-loop request list per client for serve-cold.

    Novel points cover the paper grid once per full pass (the remainder
    is a seeded sample), each with seeded ``delta``/``theta`` overrides
    that make its digest unique, so the seed moves the work little.
    After every second novel request a client repeats one of its own
    completed novel points, which the cache must serve byte-identically.
    """
    rng = random.Random(f"serve-cold:{seed}")
    grid = paper_grid()
    bases = grid * (sizes.novel // len(grid))
    bases += rng.sample(grid, sizes.novel % len(grid))
    seen: set[tuple] = set()
    novel = []
    for base in bases:
        while True:
            knobs = {"delta": rng.randint(5, 60), "theta": rng.randint(1, 8)}
            key = (base["workload"], base["policy"], base["scheme"],
                   knobs["delta"], knobs["theta"])
            if key not in seen:
                break
        seen.add(key)
        novel.append({**base, "config": knobs})
    rng.shuffle(novel)
    plans = []
    for c in range(CONNECTIONS):
        own = novel[c::CONNECTIONS]
        plan: list[tuple[str, dict]] = []
        for j, doc in enumerate(own):
            plan.append(("novel", doc))
            if j % 2 == 1:
                plan.append(("repeat", rng.choice(own[: j + 1])))
        plans.append(plan)
    return plans


def fig_points(figure: str, scale: float) -> list[tuple[str, str]]:
    """``(digest, label)`` of each grid point, in dispatch order."""
    from repro.exec import figure_points, point_digest
    from repro.experiments import default_config

    out, seen = [], set()
    for p in figure_points(figure, default_config(scale=scale)):
        if p not in seen:
            seen.add(p)
            out.append(
                (point_digest(p.config, p.workload, p.policy, p.scheme),
                 p.label())
            )
    return out


def point_latencies(
    start_ns: int, completions_ns: list[int], width: int
) -> list[float]:
    """Per-point latency of a grid from its completion times alone.

    ``completions_ns[i]`` is when point ``i`` (dispatch order) finished.
    The campaign supervisor keeps ``width`` points in flight and hands
    the next pending point to each slot the moment one completes, so
    point ``i`` started at the campaign start when ``i < width`` and
    otherwise at the ``(i - width + 1)``-th completion overall.
    """
    order = sorted(completions_ns)
    return [
        max(0, done - (start_ns if i < width else order[i - width])) / 1e9
        for i, done in enumerate(completions_ns)
    ]


def cpu_split() -> tuple[set[int], set[int]]:
    """``(load-generator CPUs, program CPUs)``.

    The harness keeps one CPU and the program under test gets the rest,
    so the load generator never competes with the server it measures.
    On a two-CPU host this halves the run-to-run spread of serve-warm's
    closed loop.  With a single CPU both share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


def result_sha(result: dict) -> str:
    from repro.exec.serialize import canonical_dumps

    return hashlib.sha256(canonical_dumps(result).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# One benchmark run: children, scratch space, tallies
# ----------------------------------------------------------------------
class Bench:
    """State of one workload run.  :meth:`close` reaps every child
    process group and deletes the scratch directory, failure or not."""

    def __init__(self, args: argparse.Namespace, sizes: Sizes):
        self.args = args
        self.sizes = sizes
        args.out.mkdir(parents=True, exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(
            prefix=f".tmp-{args.workload}-", dir=args.out
        ))
        # Children keep their temporary files inside the checkout too.
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        TMPDIR=str(self.scratch))
        self.procs: list[subprocess.Popen] = []
        self.all_cpus = os.sched_getaffinity(0)
        harness_cpus, self.program_cpus = cpu_split()
        os.sched_setaffinity(0, harness_cpus)
        self.attempted = 0
        self.failed = 0
        self.unchecked = 0
        self.errors: list[str] = []
        self.notes: list[str] = []
        self.golden = load_golden()
        self._seen_sha: dict[str, str] = {}
        self._model: dict[str, tuple[float, float]] = {}
        self._serial = 0

    # -- bookkeeping ----------------------------------------------------
    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(
        self, label: str, digest: str, sha: str, golden_key: str,
        required: bool, result: dict,
    ) -> None:
        """One simulated result: identical to every earlier copy of the
        same point and to ``golden_key``'s recorded hash."""
        first = self._seen_sha.setdefault(digest, sha)
        if first != sha:
            self.fail(f"{label}: differs from an earlier copy")
            return
        want = self.golden.get(golden_key, {}).get("sha256")
        if want is None:
            if required:
                self.fail(f"{label}: no golden hash ({golden_key[:12]})")
            else:
                self.unchecked += 1
        elif want != sha:
            self.fail(f"{label}: result differs from golden")
        self._model[digest] = (result["energy_joules"], result["execution_time"])

    def model_totals(self) -> tuple[float, float]:
        return (sum(e for e, _ in self._model.values()),
                sum(t for _, t in self._model.values()))

    def path(self, stem: str) -> Path:
        self._serial += 1
        return self.scratch / f"{stem}-{self._serial}"

    # -- children -------------------------------------------------------
    def launch(
        self, repro_args: list[str], *, times: Optional[Path] = None,
        ledger: Optional[Path] = None, profile: Optional[Path] = None,
        log: Optional[Path] = None, pinned: bool = True,
    ) -> subprocess.Popen:
        """Start ``launch.py`` with ``repro_args``; ``pinned`` keeps it off
        the load generator's CPU (a process pool needs every CPU)."""
        cmd = [sys.executable, str(HERE / "launch.py")]
        for flag, value in (("--times", times), ("--ledger", ledger),
                            ("--profile", profile)):
            if value is not None:
                cmd += [flag, str(value)]
        sink = open(log, "wb") if log is not None else subprocess.DEVNULL
        try:
            proc = subprocess.Popen(
                cmd + ["--"] + repro_args, cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=sink, stderr=sink,
                start_new_session=True,
            )
        finally:
            if log is not None:
                sink.close()
        self.procs.append(proc)
        try:
            os.sched_setaffinity(
                proc.pid, self.program_cpus if pinned else self.all_cpus
            )
        except ProcessLookupError:
            pass  # already gone; wait() reports how it ended
        return proc

    def wait(self, proc: subprocess.Popen, timeout: float) -> Optional[int]:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill(proc)
            return None

    @staticmethod
    def kill(proc: subprocess.Popen) -> None:
        """SIGKILL the child's whole process group (pool workers too)."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()

    def close(self) -> None:
        for proc in self.procs:
            self.kill(proc)
        shutil.rmtree(self.scratch, ignore_errors=True)


def load_golden() -> dict[str, dict]:
    """digest -> {"label", "scale", "sha256", "bytes"} of every golden point."""
    try:
        return json.loads(GOLDEN.read_text(encoding="utf-8"))["points"]
    except FileNotFoundError:
        return {}


def peak_rss_mb() -> float:
    """Largest resident set of any reaped child (and its descendants)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Figure-grid workloads
# ----------------------------------------------------------------------
def fig_rep(
    bench: Bench, figure: str, scale: float, jobs: int,
    points: list[tuple[str, str]], mode: str = "plain",
) -> Optional[dict]:
    """One ``repro figure`` run in a fresh interpreter and fresh cache."""
    cache = bench.path("cache")
    times = bench.path("times")
    extra = {"ledger": bench.path("ledger")} if mode == "ledger" else (
        {"profile": bench.path("profile")} if mode == "profile" else {}
    )
    spawned = time.monotonic()
    proc = bench.launch(
        ["figure", figure, "--scale", repr(scale), "--jobs", str(jobs),
         "--cache-dir", str(cache)],
        times=times, pinned=jobs == 1, **extra,
    )
    rc = bench.wait(proc, CHILD_TIMEOUT_S)
    if rc != 0 or not times.exists():
        bench.attempted += 1
        bench.fail(f"repro figure {figure}: exit status {rc}")
        return None
    clock = json.loads(times.read_text())
    completions = []
    for digest, label in points:
        bench.attempted += 1
        entry = cache / digest[:2] / f"{digest}.json"
        try:
            payload = entry.read_bytes()
            completions.append(entry.stat().st_mtime_ns)
        except OSError:
            bench.fail(f"{label}: no result in the cache")
            continue
        result = json.loads(payload)
        sha = hashlib.sha256(payload).hexdigest()
        bench.check(label, digest, sha, digest, True, result)
    shutil.rmtree(cache, ignore_errors=True)
    rep = {
        "setup_s": clock["import_done"] - spawned,
        "wall_s": clock["main_end"] - clock["main_start"],
        "latencies": (
            point_latencies(int(clock["main_start_wall"] * 1e9),
                            completions, jobs)
            if len(completions) == len(points) else []
        ),
    }
    for key, path in extra.items():
        rep[key] = json.loads(path.read_text())
    return rep


def run_fig(bench: Bench, figure: str, scale: float, jobs: int) -> dict:
    points = fig_points(figure, scale)
    if bench.args.trace:
        # Tracing is reported per point, so every point runs in-process.
        plain = fig_rep(bench, figure, scale, 1, points)
        timed = fig_rep(bench, figure, scale, 1, points, "ledger")
        profiled = fig_rep(bench, figure, scale, 1, points, "profile")
        if not (plain and timed and profiled):
            return {"per_layer": {}}
        return {"per_layer": layer_metrics(
            bench, ledger=timed["ledger"], fold=profiled["profile"],
            wall=timed["wall_s"], untraced_wall=plain["wall_s"],
            latency=latency_summary(timed["latencies"]),
        )}

    reps: list[dict] = []
    deadline = time.monotonic() + bench.args.seconds
    while True:
        began = time.monotonic()
        rep = fig_rep(bench, figure, scale, jobs, points)
        if rep is None:
            break
        reps.append(rep)
        now = time.monotonic()
        if len(reps) >= bench.sizes.min_reps and now + (now - began) > deadline:
            break
    if not reps:
        return {"end_to_end": {}}
    lat = latency_summary([s for rep in reps for s in rep["latencies"]])
    walls = [rep["wall_s"] for rep in reps]
    return {
        "end_to_end": {
            "setup_s": statistics.median(rep["setup_s"] for rep in reps),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb(),
            "p50_ms": lat["p50_ms"],
        },
        "detail": {"figure": figure, "scale": scale, "jobs": jobs,
                   "reps": len(reps), "walls_s": walls, "latency": lat,
                   "point_latencies_s": [rep["latencies"] for rep in reps]},
        "also": {"tail_ms": lat["tail_ms"], "tail_pct": lat["tail_pct"]},
    }


# ----------------------------------------------------------------------
# Scheduling-service workloads
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One submit -> long-poll -> validate round trip."""

    ok: bool
    error: str = ""
    digest: str = ""
    sha: str = ""
    result: Optional[dict] = None
    submit_s: float = 0.0
    poll_s: float = 0.0


async def request_point(client, doc: dict) -> Outcome:
    """Submit one point, ride it to a terminal state, validate the result.

    A 429 is backpressure, not failure: sleep its Retry-After (capped)
    and resubmit, at most 20 times.
    """
    from repro.exec.serialize import run_result_from_dict

    loop = asyncio.get_running_loop()
    began = loop.time()
    try:
        for _attempt in range(20):
            status, headers, body = await client.request(
                "POST", "/v1/submit", doc=doc
            )
            if status != 429:
                break
            await asyncio.sleep(min(float(headers.get("retry-after", 1)), 2.0))
        if status != 202:
            return Outcome(False, f"submit -> {status}: {body}")
        submitted = loop.time()
        job_id = body["job"]["id"]
        while True:
            status, _headers, body = await client.request(
                "GET", f"/v1/jobs/{job_id}?wait=30"
            )
            if status != 200:
                return Outcome(False, f"poll {job_id} -> {status}")
            if body["job"]["state"] in ("done", "failed"):
                break
    except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
        return Outcome(False, f"transport: {type(exc).__name__}: {exc}")
    finished = loop.time()
    job = body["job"]
    if job["state"] != "done":
        return Outcome(False, f"job {job_id} failed: {job.get('error')}")
    try:
        run_result_from_dict(job["result"])
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(False, f"job {job_id}: invalid result: {exc}")
    return Outcome(
        True, "", job["digest"], result_sha(job["result"]), job["result"],
        submitted - began, finished - submitted,
    )


@dataclass
class OpenRecord:
    due: float
    dispatched: float
    done: float
    outcome: Outcome

    @property
    def latency(self) -> float:
        """Measured from when the request was due, not when it went out."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.dispatched - self.due


async def open_loop(
    host: str, port: int, schedule: list[tuple[float, dict]],
    connections: int = CONNECTIONS,
    request: Callable = request_point,
) -> list[OpenRecord]:
    """Send ``schedule`` on time regardless of replies.

    A dispatcher releases each request at its due time into a FIFO that
    ``connections`` keep-alive connections drain; a request that waits
    for a free connection keeps its due time, so a stall shows in the
    latency of every request queued behind it.
    """
    from repro.serve.http import HttpClient

    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    records: list[OpenRecord] = []
    start = loop.time() + 0.05

    async def dispatch() -> None:
        for offset, doc in schedule:
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((due, loop.time(), doc))
        for _ in range(connections):
            queue.put_nowait(None)

    async def send() -> None:
        client = HttpClient(host, port)
        try:
            while (item := await queue.get()) is not None:
                due, dispatched, doc = item
                outcome = await request(client, dict(doc))
                records.append(OpenRecord(due, dispatched, loop.time(), outcome))
        finally:
            await client.close()

    await asyncio.gather(dispatch(), *(send() for _ in range(connections)))
    return records


async def closed_loop(
    host: str, port: int, plans: list[list[tuple[str, dict]]]
) -> tuple[float, list[tuple[str, float, Outcome]]]:
    """One client per plan, each sending its next request on a reply."""
    from repro.serve.http import HttpClient

    loop = asyncio.get_running_loop()

    async def client_run(plan):
        client = HttpClient(host, port)
        out = []
        try:
            for kind, doc in plan:
                began = loop.time()
                outcome = await request_point(client, dict(doc))
                out.append((kind, loop.time() - began, outcome))
        finally:
            await client.close()
        return out

    began = loop.time()
    per_client = await asyncio.gather(*(client_run(p) for p in plans))
    return loop.time() - began, [r for rows in per_client for r in rows]


async def fetch_metrics(host: str, port: int) -> dict:
    from repro.serve.http import HttpClient

    client = HttpClient(host, port)
    try:
        status, _h, body = await client.request("GET", "/v1/metrics")
    finally:
        await client.close()
    if status != 200:
        raise RuntimeError(f"/v1/metrics -> {status}")
    return body


class Server:
    """``repro serve`` in a child process on an ephemeral port."""

    HOST = "127.0.0.1"

    def __init__(self, bench: Bench, scale: float, cache: Path,
                 ledger: Optional[Path] = None):
        self.bench = bench
        self.ledger = ledger
        self.log = bench.path("serve-log")
        spawned = time.monotonic()
        self.proc = bench.launch(
            ["serve", "--host", self.HOST, "--port", "0",
             "--scale", repr(scale), "--cache-dir", str(cache),
             "--wal", str(bench.path("wal"))],
            ledger=ledger, log=self.log,
        )
        self.port = self._await_port()
        self._await_health()
        self.setup_s = time.monotonic() - spawned

    def _await_port(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            match = re.search(rb"listening on http://[^:]+:(\d+)",
                              self.log.read_bytes())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            f"repro serve did not start: {self.log.read_text()[-500:]}"
        )

    def _await_health(self) -> None:
        url = f"http://{self.HOST}:{self.port}/healthz"
        deadline = time.monotonic() + 30.0
        while True:
            try:
                with urllib.request.urlopen(url, timeout=5) as resp:
                    if resp.status == 200:
                        return
            except OSError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.005)

    def stop(self) -> Optional[dict]:
        """Drain (SIGTERM) and reap; the ledger when one was kept."""
        self.proc.send_signal(signal.SIGTERM)
        rc = self.bench.wait(self.proc, 60.0)
        if rc != 0:
            self.bench.fail(f"repro serve exited {rc} on drain")
            return None
        return json.loads(self.ledger.read_text()) if self.ledger else None


def server_setups(bench: Bench, scale: float) -> list[float]:
    """Spawn-to-healthy time of servers started and drained at once."""
    setups = []
    for _ in range(bench.sizes.launches - 1):
        server = Server(bench, scale, bench.path("cache"))
        setups.append(server.setup_s)
        server.stop()
    return setups


def tally(
    bench: Bench, outcomes: list[Outcome],
    golden_key: Callable[[Outcome], str] = lambda o: o.digest,
    required: Callable[[Outcome], bool] = lambda o: True,
) -> None:
    """Count and check served results; by default each must match the
    golden hash of its own digest."""
    for outcome in outcomes:
        bench.attempted += 1
        if not outcome.ok:
            bench.fail(outcome.error)
            continue
        bench.check(
            outcome.digest[:12], outcome.digest, outcome.sha,
            golden_key(outcome), required(outcome), outcome.result,
        )
        outcome.result = None  # only the hash is kept past this point


def metrics_diff(before: dict, after: dict) -> dict:
    b, a = before["counters"], after["counters"]
    delta = {name: a.get(name, 0) - b.get(name, 0) for name in a}
    resolved = delta["server.cache_hits"] + delta["server.simulated"]
    return {
        "serve.rejected": delta["server.rejected"],
        "serve.deduplicated": delta["server.batched"],
        "serve.simulated": delta["server.simulated"],
        "serve.cache_hit_ratio": (
            delta["server.cache_hits"] / resolved if resolved else 0.0
        ),
        "serve.queue_depth_peak": after["gauges"]["server.queue_depth_peak"],
    }


def client_split(outcomes: list[Outcome]) -> dict:
    ok = [o for o in outcomes if o.ok]
    out = {}
    for name, values in (("submit", [o.submit_s for o in ok]),
                         ("poll", [o.poll_s for o in ok])):
        ms = sorted(v * 1e3 for v in values)
        for pct in (50, 99):
            out[f"serve.{name}_ms.p{pct}"] = percentile(ms, pct) if ms else 0.0
    return out


def run_serve_warm(bench: Bench) -> dict:
    from repro.serve import LoadgenConfig, run_loadgen

    sizes, seed = bench.sizes, bench.args.seed
    mix = warm_mix(seed, sizes, bench.golden)
    cache = bench.path("cache")

    async def warm(port: int) -> float:
        from repro.serve.http import HttpClient

        began = time.monotonic()
        client = HttpClient(Server.HOST, port)
        try:
            outcomes = [await request_point(client, dict(d)) for d in mix]
        finally:
            await client.close()
        tally(bench, outcomes)
        return time.monotonic() - began

    async def capacity(port: int, per_client: int) -> dict:
        report = await run_loadgen(LoadgenConfig(
            host=Server.HOST, port=port, clients=CONNECTIONS,
            requests=per_client, mix=tuple(mix), warm=False,
        ))
        bench.attempted += report["requests"]
        for _ in range(report["failed"]):
            bench.fail("closed loop: " + "; ".join(report["errors"][:1]))
        if report["latency_ms"]["p99"] > CAPACITY_P99_MS:
            bench.fail(f"closed loop p99 {report['latency_ms']['p99']} ms "
                       f"exceeds {CAPACITY_P99_MS:g} ms")
        return report

    async def measured(port: int, open_s: float, per_client: int) -> dict:
        before = await fetch_metrics(Server.HOST, port)
        schedule = poisson_schedule(seed, sizes.rate, open_s, mix)
        records = await open_loop(Server.HOST, port, schedule)
        tally(bench, [r.outcome for r in records])
        report = await capacity(port, per_client)
        after = await fetch_metrics(Server.HOST, port)
        ok = [r for r in records if r.outcome.ok]
        return {
            "latency": latency_summary([r.latency for r in ok]),
            "lag_ms": sorted(r.lag * 1e3 for r in records),
            "outcomes": [r.outcome for r in records],
            "capacity": report,
            "server": metrics_diff(before, after),
        }

    if bench.args.trace:
        half = max(1, sizes.closed_per_client // 2)
        plain = Server(bench, sizes.warm_scale, cache)
        try:
            asyncio.run(warm(plain.port))
            untraced = asyncio.run(capacity(plain.port, half))
        finally:
            plain.stop()
        ledger_path = bench.path("ledger")
        traced = Server(bench, sizes.warm_scale, cache, ledger_path)
        try:
            asyncio.run(warm(traced.port))
            phase = asyncio.run(measured(
                traced.port, sizes.open_share * bench.args.seconds / 2, half
            ))
        finally:
            ledger = traced.stop()
        return {"per_layer": layer_metrics(
            bench, ledger=ledger, untraced_wall=untraced["seconds"],
            wall=phase["capacity"]["seconds"], phase=phase,
        )}

    setups = server_setups(bench, sizes.warm_scale)
    server = Server(bench, sizes.warm_scale, cache)
    setups.append(server.setup_s)
    try:
        warm_s = asyncio.run(warm(server.port))
        phase = asyncio.run(measured(
            server.port, sizes.open_share * bench.args.seconds,
            sizes.closed_per_client,
        ))
    finally:
        server.stop()
    report = phase["capacity"]
    return {
        "end_to_end": {
            "setup_s": statistics.median(setups) + warm_s,
            "wall_s": report["seconds"],
            "peak_rss_mb": peak_rss_mb(),
            "p50_ms": phase["latency"]["p50_ms"],
        },
        "detail": {
            "scale": sizes.warm_scale, "spawn_to_healthy_s": setups,
            "warm_s": warm_s, "open_loop": phase["latency"],
            "open_rate": sizes.rate,
            "lag_ms_p99": percentile(phase["lag_ms"], 99),
            "max_rps": report["requests"] / report["seconds"],
            "closed_loop": {k: report[k] for k in (
                "requests", "seconds", "latency_ms", "failed")},
            "server": phase["server"],
        },
        "also": {
            "tail_ms": phase["latency"]["tail_ms"],
            "tail_pct": phase["latency"]["tail_pct"],
            "max_rps": report["requests"] / report["seconds"],
        },
    }


def run_serve_cold(bench: Bench) -> dict:
    from repro.exec import point_digest
    from repro.experiments import default_config

    sizes, seed = bench.sizes, bench.args.seed
    base = default_config(scale=sizes.cold_scale)

    def golden_key(outcome: Outcome) -> str:
        # Compiler knobs cannot change a scheme-off result: it must equal
        # the golden result of the same point at the default knobs.
        doc = docs_by_digest[outcome.digest]
        if doc["scheme"]:
            return outcome.digest
        return point_digest(base, doc["workload"], doc["policy"], False)

    def required(outcome: Outcome) -> bool:
        return not docs_by_digest[outcome.digest]["scheme"] or seed == 0

    plans = cold_plans(seed, sizes)
    docs_by_digest = {}
    for plan in plans:
        for _kind, doc in plan:
            cfg = base.scaled(**doc["config"])
            docs_by_digest[point_digest(
                cfg, doc["workload"], doc["policy"], doc["scheme"])] = doc

    def measure(server: Server, plans) -> dict:
        before = asyncio.run(fetch_metrics(Server.HOST, server.port))
        wall, rows = asyncio.run(closed_loop(Server.HOST, server.port, plans))
        after = asyncio.run(fetch_metrics(Server.HOST, server.port))
        tally(bench, [o for _k, _l, o in rows], golden_key, required)
        novel = [lat for kind, lat, o in rows if kind == "novel" and o.ok]
        return {"wall": wall, "rows": rows, "requests": len(rows),
                "latency": latency_summary(novel),
                "server": metrics_diff(before, after)}

    if bench.args.trace:
        halves = [plan[: len(plan) // 2] for plan in plans]
        plain = Server(bench, sizes.cold_scale, bench.path("cache"))
        try:
            untraced = measure(plain, halves)
        finally:
            plain.stop()
        ledger_path = bench.path("ledger")
        traced = Server(bench, sizes.cold_scale, bench.path("cache"),
                        ledger_path)
        try:
            phase = measure(traced, halves)
        finally:
            ledger = traced.stop()
        phase["outcomes"] = [o for _k, _l, o in phase["rows"]]
        return {"per_layer": layer_metrics(
            bench, ledger=ledger, untraced_wall=untraced["wall"],
            wall=phase["wall"], phase=phase,
        )}

    setups = server_setups(bench, sizes.cold_scale)
    server = Server(bench, sizes.cold_scale, bench.path("cache"))
    setups.append(server.setup_s)
    try:
        phase = measure(server, plans)
    finally:
        server.stop()
    return {
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": phase["wall"],
            "peak_rss_mb": peak_rss_mb(),
            "p50_ms": phase["latency"]["p50_ms"],
        },
        "detail": {
            "scale": sizes.cold_scale, "spawn_to_healthy_s": setups,
            "requests": phase["requests"], "novel_latency": phase["latency"],
            "rps": phase["requests"] / phase["wall"],
            "server": phase["server"],
            "golden_unchecked": bench.unchecked,
        },
        "also": {
            "tail_ms": phase["latency"]["tail_ms"],
            "tail_pct": phase["latency"]["tail_pct"],
            "rps": phase["requests"] / phase["wall"],
        },
    }


# ----------------------------------------------------------------------
# Per-layer ledger
# ----------------------------------------------------------------------
def layer_metrics(
    bench: Bench, *, ledger: Optional[dict], wall: float,
    untraced_wall: float, fold: Optional[dict] = None,
    phase: Optional[dict] = None, latency: Optional[dict] = None,
) -> dict:
    """Every per-layer metric of a traced run (0 where a layer is idle)."""
    m = {name: 0.0 for name in PER_LAYER}
    m["trace.overhead"] = wall / untraced_wall - 1.0
    if ledger:
        spans, counts = ledger["spans"], ledger["counts"]
        for metric, span in SPAN_METRICS.items():
            m[metric] = spans.get(span, {}).get("self_s", 0.0)
        for name in COUNT_METRICS:
            m[name] = counts.get(name, 0)
        if phase is None:
            # Only a grid run's ledger spans exactly the call wall times.
            m["trace.coverage"] = (
                sum(s["self_s"] for s in spans.values()) / wall
            )
        if m["sim.events"]:
            m["sim.ns_per_event"] = (
                m["runtime.session_run_s"] / m["sim.events"] * 1e9
            )
        looked = counts.get("storage.cache_hits", 0) + counts.get(
            "storage.cache_misses", 0)
        if looked:
            m["storage.cache_hit_ratio"] = (
                counts.get("storage.cache_hits", 0) / looked
            )
        if m["runtime.prefetches"]:
            m["runtime.prefetch_hit_ratio"] = (
                counts.get("runtime.buffer_hits", 0) / m["runtime.prefetches"]
            )
    if fold:
        total = sum(fold["layers"].values())
        for layer in DES_LAYERS:
            share = fold["layers"].get(layer, 0.0) / total if total else 0.0
            m[f"{layer}.share"] = share
            m[f"{layer}.des_s"] = share * m["runtime.session_run_s"]
    latency = phase["latency"] if phase else latency
    if latency and latency["n"]:
        m["tail_ms"] = latency["tail_ms"]
    if phase:
        m.update(phase["server"])
        m.update(client_split(phase["outcomes"]))
        if phase.get("lag_ms"):
            m["loadgen.lag_ms.p99"] = percentile(phase["lag_ms"], 99)
    m["model.energy_j"], m["model.exec_time_s"] = bench.model_totals()
    return m


# ----------------------------------------------------------------------
# Golden results
# ----------------------------------------------------------------------
def write_golden() -> int:
    """Recompute every golden hash in-process, through ``Runner.run``
    rather than the benchmarked CLI and server paths."""
    from repro.exec import figure_points, point_digest, run_result_to_dict
    from repro.exec.serialize import canonical_dumps
    from repro.experiments import Runner, default_config

    points: dict[str, dict] = {}

    def add(runner, cfg, workload, policy, scheme, note=""):
        digest = point_digest(cfg, workload, policy, scheme)
        if digest in points:
            return
        result = run_result_to_dict(runner.run(workload, policy, scheme, cfg))
        label = f"{workload}/{policy}/{'scheme' if scheme else 'plain'}{note}"
        points[digest] = {"label": label, "scale": cfg.workload_scale,
                          "sha256": result_sha(result),
                          "bytes": len(canonical_dumps(result))}

    for sizes in (FULL, SMOKE):
        for figure, scale in (("fig12d", sizes.scheme_scale),
                              ("fig12c", sizes.plain_scale)):
            cfg = default_config(scale=scale)
            runner = Runner(cfg)
            for p in figure_points(figure, cfg):
                add(runner, p.config, p.workload, p.policy, p.scheme)
        for scale in sorted({sizes.warm_scale, sizes.cold_scale}):
            cfg = default_config(scale=scale)
            runner = Runner(cfg)
            for doc in paper_grid():
                add(runner, cfg, doc["workload"], doc["policy"], doc["scheme"])
        cfg = default_config(scale=sizes.cold_scale)
        runner = Runner(cfg)
        for plan in cold_plans(0, sizes):
            for kind, doc in plan:
                if kind == "novel" and doc["scheme"]:
                    knobs = doc["config"]
                    add(runner, cfg.scaled(**knobs), doc["workload"],
                        doc["policy"], True,
                        f" delta={knobs['delta']} theta={knobs['theta']}")
    GOLDEN.write_text(json.dumps(
        {"generated_by": "python3 bench/run.py --write-golden",
         "points": dict(sorted(points.items()))},
        indent=1, sort_keys=True,
    ) + "\n", encoding="utf-8")
    print(f"wrote {len(points)} golden hashes to {GOLDEN.relative_to(ROOT)}")
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_workload(args: argparse.Namespace) -> int:
    sizes = SMOKE if args.smoke else FULL
    nproc = os.cpu_count() or 1
    bench = Bench(args, sizes)
    try:
        if args.workload == "fig-scheme":
            out = run_fig(bench, "fig12d", sizes.scheme_scale, 1)
        elif args.workload == "fig-plain":
            jobs = min(CONNECTIONS, nproc)
            if jobs < CONNECTIONS:
                bench.notes.append(
                    f"nproc={nproc}: fig-plain ran --jobs {jobs}, so its "
                    "wall_s is not comparable with a two-worker run"
                )
            out = run_fig(bench, "fig12c", sizes.plain_scale, jobs)
        elif args.workload == "serve-warm":
            out = run_serve_warm(bench)
        else:
            out = run_serve_cold(bench)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        bench.attempted += 1
        bench.fail(f"{type(exc).__name__}: {exc}")
        out = {}
    finally:
        bench.close()

    units = PER_LAYER if args.trace else END_TO_END
    values = out.get("per_layer" if args.trace else "end_to_end", {})
    metrics = {name: {"value": values.get(name), "unit": unit}
               for name, unit in units.items()}
    line = {
        "correct": bench.failed == 0,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "host": dict(host_facts(args.seed),
                     harness_cpus=sorted(os.sched_getaffinity(0)),
                     program_cpus=sorted(bench.program_cpus)),
        "result": line,
        "detail": out.get("detail", {}), "also": out.get("also", {}),
        "errors": bench.errors, "notes": bench.notes,
    }
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    path = args.out / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                       f"{stamp}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    host = record["host"]
    print(f"[bench] {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={host['nproc']} python={host['python']} "
          f"load={host['loadavg']} -> {os.path.relpath(path)}")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:28s} {shown:>14s} {metric['unit']}")
    extra = dict(record["also"],
                 error_rate=bench.failed / max(1, bench.attempted))
    print("  also: " + ", ".join(
        f"{k}={'n/a' if v is None else format(v, '.6g')}"
        for k, v in sorted(extra.items())))
    for message in bench.errors + bench.notes:
        print(f"  ! {message}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long one run measures (default: 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced per-layer run")
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scales and loads (a functional check)")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="where result records go (default: bench/out)")
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute bench/golden.json and exit")
    args = parser.parse_args(argv)
    if args.traced:
        args.trace = 1
    args.out = args.out.resolve()
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        # One fresh harness per workload, so each one's peak RSS is its own.
        passthrough = ["--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(args.trace),
                       "--out", str(args.out)] + (["--smoke"] * args.smoke)
        codes = [
            subprocess.call([sys.executable, __file__, "--workload", name]
                            + passthrough)
            for name in WORKLOADS
        ]
        return max(codes)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
