"""Benchmark child process: import ``repro.cli``, optionally instrument it,
call ``repro.cli.main`` with the arguments after ``--``, and report.

    python bench/launch.py [--times F] [--ledger F] [--profile F] -- <repro args>

``--times`` writes the child's own clock readings: when the import of
``repro.cli`` finished and when the ``main`` call started and ended
(``time.monotonic``, which every process on the host shares, so the
parent can subtract its spawn time).  ``--ledger`` installs the boundary
timers of :mod:`ledger` first and writes their totals at exit.
``--profile`` runs cProfile inside every second ``Session.run`` only and
writes the per-layer fold.  Without ``--ledger`` and ``--profile`` the
child runs exactly what ``python -m repro`` runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repro.cli  # noqa: E402

IMPORT_DONE = time.monotonic()

from ledger import Ledger, fold_profile, rebind  # noqa: E402


def install_timers(ledger: Ledger) -> None:
    """Wrap each layer's public entry points in a span, at every use site."""
    import dataclasses

    import repro.analysis
    import repro.core.compiler
    import repro.exec.serialize as serialize
    import repro.ir.profiling
    import repro.metrics.energy as energy
    import repro.metrics.idle
    import repro.serve
    import repro.serve.server as server_mod
    import repro.workloads
    from repro.exec.cache import ResultCache
    from repro.exec.journal import DurableJournal
    from repro.runtime.session import Session

    def wrap(fn, name, observe=None):
        rebind(fn, ledger.timed(name, fn, observe))

    original_get_workload = repro.workloads.get_workload
    timed_builds: dict[str, object] = {}

    def get_workload(name):
        info = original_get_workload(name)
        if name not in timed_builds:
            timed_builds[name] = ledger.timed("workloads.build", info.build)
        return dataclasses.replace(info, build=timed_builds[name])

    rebind(original_get_workload, get_workload)

    wrap(repro.ir.profiling.trace_program, "ir.trace",
         lambda _trace: ledger.add("ir.traces"))

    def count_compile(result):
        ledger.add("core.compiles")
        ledger.add("core.accesses", len(result.accesses))

    wrap(repro.core.compiler.compile_schedule, "core.compile", count_compile)
    wrap(repro.analysis.verify_schedule, "analysis.verify")
    for fn in (energy.breakdown_until, energy.idle_periods_until,
               energy.fleet_energy, repro.metrics.idle.idle_cdf):
        wrap(fn, "metrics.distil")
    for fn in (serialize.run_result_to_dict, serialize.canonical_dumps,
               serialize.run_result_from_dict):
        wrap(fn, "exec.serialize")
    wrap(server_mod.parse_point, "serve.parse")

    Session.__init__ = ledger.timed(
        "runtime.session_build", Session.__init__
    )
    Session.run = ledger.timed(
        "runtime.session_run", Session.run, lambda out: count_session(ledger, out)
    )
    ResultCache.lookup = ledger.timed(
        "exec.cache_lookup", ResultCache.lookup,
        lambda hit: ledger.add(
            "exec.cache_misses" if hit is None else "exec.cache_hits"
        ),
    )
    ResultCache.store = ledger.timed("exec.cache_store", ResultCache.store)
    DurableJournal.append = ledger.timed(
        "serve.wal_append", DurableJournal.append,
        lambda _none: ledger.add("serve.wal_appends"),
    )

    class TimedServer(server_mod.SchedulingServer):
        """The scheduling server with its batch function timed through
        the ``run_batch_fn`` injection point."""

        def __init__(self, config=None, run_batch_fn=None):
            inner = run_batch_fn or (
                lambda tenant, points: self._run_batch(tenant, points)
            )
            super().__init__(
                config,
                run_batch_fn=ledger.timed(
                    "serve.batch", inner,
                    lambda _outcome: ledger.add("serve.batches"),
                ),
            )

    # ``repro serve`` imports the class from the package at call time.
    repro.serve.SchedulingServer = TimedServer


def count_session(ledger: Ledger, outcome) -> None:
    """Count the work one finished simulation did, from the same fields
    the ``--metrics`` snapshot exports (drive.*, cache.node*, ionode.*,
    net.link*, buffer.*, client.*)."""
    ledger.add("runtime.sessions")
    ledger.add("sim.events", outcome.sim.events_executed)
    for drive in outcome.drives:
        ledger.add("disk.requests", drive.stats.requests)
        ledger.add("disk.spin_ups", drive.stats.spin_ups)
        ledger.add("disk.rpm_steps", drive.stats.rpm_steps)
    for node in outcome.pfs.nodes:
        ledger.add("storage.cache_hits", node.cache.stats.hits)
        ledger.add("storage.cache_misses", node.cache.stats.misses)
        ledger.add("storage.ionode_reads", node.stats.reads)
    for link in outcome.network.links:
        ledger.add("net.transfers", link.stats.transfers)
    if outcome.buffer is not None:
        ledger.add("runtime.prefetches", outcome.buffer.total_prefetches)
        ledger.add("runtime.buffer_hits", outcome.buffer.hits)
    for client in outcome.clients:
        ledger.add("runtime.sync_reads", client.stats.reads_synchronous)


def install_profiler():
    """cProfile every second ``Session.run`` call into one shared profile.

    Profiling triples a simulation's time; sampling alternate points
    keeps the traced mode within twice the untraced run.
    """
    import cProfile
    import itertools

    from repro.runtime.session import Session

    profile = cProfile.Profile()
    original_run = Session.run
    calls = itertools.count()

    def profiled_run(self, *args, **kwargs):
        if next(calls) % 2:
            return original_run(self, *args, **kwargs)
        profile.enable()
        try:
            return original_run(self, *args, **kwargs)
        finally:
            profile.disable()

    Session.run = profiled_run
    return profile


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--times", type=Path)
    parser.add_argument("--ledger", type=Path)
    parser.add_argument("--profile", type=Path)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    ledger = Ledger() if args.ledger else None
    if ledger is not None:
        install_timers(ledger)
    profile = install_profiler() if args.profile else None

    main_start_wall = time.time()
    main_start = time.monotonic()
    rc = repro.cli.main(argv)
    main_end = time.monotonic()

    if args.times:
        args.times.write_text(json.dumps({
            "import_done": IMPORT_DONE,
            "main_start": main_start,
            "main_start_wall": main_start_wall,
            "main_end": main_end,
            "rc": rc,
        }))
    if ledger is not None:
        args.ledger.write_text(json.dumps(ledger.as_dict()))
    if profile is not None:
        import pstats

        layers = fold_profile(pstats.Stats(profile).stats)
        args.profile.write_text(json.dumps({"layers": layers}))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
