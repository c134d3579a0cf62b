"""Populate a :class:`~repro.obs.metrics.MetricsRegistry` from a finished
session.

Almost everything here is derived *after* the run from state the
simulation already keeps — drive timelines, the stats dataclasses every
component carries — so enabling metrics adds no per-event cost.  The two
exceptions (per-link queue-delay histograms, scheduler wait clocks) are
sampled live but gated, see :mod:`repro.obs.base`.

Naming convention (flat, dot-separated, instance id embedded)::

    run.execution_time                 gauge   seconds
    sim.events_executed                counter
    drive.<name>.energy.<family>       gauge   joules ('total' included)
    drive.<name>.residency.<family>    gauge   seconds in [0, horizon]
    drive.<name>.transitions.<family>  counter entries into the family
    drive.<name>.requests              counter (+reads/writes/bytes_*)
    drive.<name>.idle_period_ms        histogram (paper Fig. 12 buckets)
    fleet.idle_period_ms               histogram pooled over drives
    buffer.*                           prefetch buffer counters/gauges
    sched.p<pid>.*                     per-scheduler-thread wait reasons
    cache.node<i>.*                    storage-cache hit/eviction stats
    ionode.node<i>.*                   I/O-node service counters
    net.link<i>.*                      link transfer stats (+ histogram)
    mpiio.*                            middleware-level I/O stats
    client.*                           summed application-side counters
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..metrics.energy import (
    breakdown_until,
    idle_periods_until,
    residency_until,
    transition_counts_until,
)
from ..metrics.idle import PAPER_BUCKETS_MS
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.energy import EnergyAnalysis
    from ..runtime.session import SessionResult

__all__ = [
    "LINK_DELAY_BOUNDS_S",
    "RETRY_BOUNDS",
    "collect_session_metrics",
    "collect_envelope_metrics",
]

#: Bucket bounds (seconds) for per-link queue-delay histograms: 10 µs up
#: to 1 s, roughly half-decade steps.
LINK_DELAY_BOUNDS_S = (
    1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0,
)

#: Bucket bounds for the retries-per-recovered-read histogram.
RETRY_BOUNDS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)


def collect_envelope_metrics(
    registry: MetricsRegistry,
    analysis: "EnergyAnalysis",
    measured_joules: float | None = None,
) -> MetricsRegistry:
    """Distil one static energy analysis into ``registry``; returns it.

    Names follow the session convention (flat, dot-separated, config id
    embedded) so ``repro report`` merges analyzer snapshots with
    simulation snapshots and ``--filter 'analysis.*'`` isolates them::

        analysis.<app>.<policy>.<on|off>.energy.lower_j    gauge  joules
        analysis.<app>.<policy>.<on|off>.energy.upper_j    gauge  joules
        analysis.<app>.<policy>.<on|off>.energy.width_j    gauge  joules
        analysis.<app>.<policy>.<on|off>.energy.relative_width  gauge
        analysis.<app>.<policy>.<on|off>.time.{lower,upper}_s   gauge
        analysis.<app>.<policy>.<on|off>.busy.{lower,upper}_s   gauge
        analysis.<app>.<policy>.<on|off>.occupancy_peak_blocks  gauge
        analysis.<app>.<policy>.<on|off>.widenings         counter
        analysis.<app>.<policy>.<on|off>.diagnostics       counter
        analysis.<app>.<policy>.<on|off>.measured_j        gauge (--check)
        analysis.<app>.<policy>.<on|off>.contained         gauge 0/1

    ``measured_joules`` is the DES cross-validation result when the
    caller ran one (``repro analyze --check``).  The ``relative_width``
    gauges are the one record of envelope tightness: CI's
    ``analyzer-soundness`` job uploads them and asserts each lies in
    [0, 1].
    """
    env = analysis.envelope
    prefix = (
        f"analysis.{env.workload}.{env.policy}."
        f"{'on' if env.scheme else 'off'}"
    )
    registry.gauge(f"{prefix}.energy.lower_j").set(env.energy_j.lo)
    registry.gauge(f"{prefix}.energy.upper_j").set(env.energy_j.hi)
    registry.gauge(f"{prefix}.energy.width_j").set(env.width_j)
    registry.gauge(f"{prefix}.energy.relative_width").set(env.relative_width)
    registry.gauge(f"{prefix}.time.lower_s").set(env.time_s.lo)
    registry.gauge(f"{prefix}.time.upper_s").set(env.time_s.hi)
    registry.gauge(f"{prefix}.busy.lower_s").set(env.busy_s.lo)
    registry.gauge(f"{prefix}.busy.upper_s").set(env.busy_s.hi)
    registry.gauge(f"{prefix}.occupancy_peak_blocks").set(
        float(analysis.occupancy_peak_blocks)
    )
    registry.counter(f"{prefix}.widenings").inc(len(env.widened_by))
    registry.counter(f"{prefix}.diagnostics").inc(len(analysis.report))
    if measured_joules is not None:
        registry.gauge(f"{prefix}.measured_j").set(measured_joules)
        registry.gauge(f"{prefix}.contained").set(
            1.0 if env.contains(measured_joules) else 0.0
        )
    return registry


def collect_session_metrics(
    registry: MetricsRegistry, outcome: "SessionResult", horizon: float
) -> MetricsRegistry:
    """Distil one finished run into ``registry``; returns it.

    ``horizon`` is the application execution window — all timeline-derived
    quantities (energy, residency, idle periods) are clipped to it, so the
    snapshot's energy breakdown sums match
    :func:`~repro.metrics.energy.energy_until` exactly.
    """
    registry.gauge("run.execution_time").set(horizon)
    if outcome.sim is not None:
        registry.counter("sim.events_executed").inc(
            outcome.sim.events_executed
        )

    fleet_idle = registry.histogram("fleet.idle_period_ms", PAPER_BUCKETS_MS)
    for drive in outcome.drives:
        prefix = f"drive.{drive.name}"
        for family, joules in breakdown_until(drive, horizon).as_dict().items():
            registry.gauge(f"{prefix}.energy.{family}").set(joules)
        for family, seconds in residency_until(drive, horizon).items():
            registry.gauge(f"{prefix}.residency.{family}").set(seconds)
        for family, n in transition_counts_until(drive, horizon).items():
            registry.counter(f"{prefix}.transitions.{family}").inc(n)

        stats = drive.stats
        registry.counter(f"{prefix}.requests").inc(stats.requests)
        registry.counter(f"{prefix}.reads").inc(stats.reads)
        registry.counter(f"{prefix}.writes").inc(stats.writes)
        registry.counter(f"{prefix}.bytes_read").inc(stats.bytes_read)
        registry.counter(f"{prefix}.bytes_written").inc(stats.bytes_written)
        registry.counter(f"{prefix}.spin_ups").inc(stats.spin_ups)
        registry.counter(f"{prefix}.spin_downs").inc(stats.spin_downs)
        registry.counter(f"{prefix}.aborted_spin_downs").inc(
            stats.aborted_spin_downs
        )
        registry.counter(f"{prefix}.rpm_steps").inc(stats.rpm_steps)
        registry.gauge(f"{prefix}.total_queue_delay").set(
            stats.total_queue_delay
        )
        registry.gauge(f"{prefix}.mean_response_time").set(
            stats.mean_response_time
        )

        hist = registry.histogram(f"{prefix}.idle_period_ms", PAPER_BUCKETS_MS)
        for seconds in idle_periods_until(drive, horizon):
            hist.observe(seconds * 1000.0)
            fleet_idle.observe(seconds * 1000.0)

    buffer = outcome.buffer
    if buffer is not None:
        registry.counter("buffer.prefetches").inc(buffer.total_prefetches)
        registry.counter("buffer.hits").inc(buffer.hits)
        registry.counter("buffer.abandoned").inc(buffer.abandoned)
        registry.counter("buffer.reclaimed").inc(buffer.reclaimed)
        registry.gauge("buffer.peak_used_blocks").set(buffer.peak_used)
        registry.gauge("buffer.capacity_blocks").set(buffer.capacity_blocks)

    for thread in outcome.scheduler_threads:
        prefix = f"sched.p{thread.process_id}"
        stats = thread.stats
        registry.counter(f"{prefix}.prefetches_issued").inc(
            stats.prefetches_issued
        )
        registry.counter(f"{prefix}.prefetches_skipped_late").inc(
            stats.prefetches_skipped_late
        )
        registry.counter(f"{prefix}.producer_waits").inc(stats.producer_waits)
        registry.counter(f"{prefix}.buffer_stalls").inc(stats.buffer_stalls)
        registry.gauge(f"{prefix}.buffer_stall_time").set(
            stats.buffer_stall_time
        )
        registry.gauge(f"{prefix}.producer_wait_time").set(
            stats.producer_wait_time
        )

    for node in outcome.pfs.nodes:
        cprefix = f"cache.node{node.node_id}"
        cstats = node.cache.stats
        registry.counter(f"{cprefix}.hits").inc(cstats.hits)
        registry.counter(f"{cprefix}.misses").inc(cstats.misses)
        registry.counter(f"{cprefix}.insertions").inc(cstats.insertions)
        registry.counter(f"{cprefix}.evictions").inc(cstats.evictions)
        registry.counter(f"{cprefix}.dirty_evictions").inc(
            cstats.dirty_evictions
        )
        registry.counter(f"{cprefix}.invalidations").inc(cstats.invalidations)
        registry.gauge(f"{cprefix}.hit_rate").set(cstats.hit_rate)
        registry.gauge(f"{cprefix}.resident_blocks").set(len(node.cache))

        nprefix = f"ionode.node{node.node_id}"
        nstats = node.stats
        registry.counter(f"{nprefix}.reads").inc(nstats.reads)
        registry.counter(f"{nprefix}.writes").inc(nstats.writes)
        registry.counter(f"{nprefix}.bytes_read").inc(nstats.bytes_read)
        registry.counter(f"{nprefix}.bytes_written").inc(nstats.bytes_written)
        registry.counter(f"{nprefix}.read_hits").inc(nstats.read_hits)
        registry.counter(f"{nprefix}.destages").inc(nstats.destages)

    for i, link in enumerate(outcome.network.links):
        prefix = f"net.link{i}"
        registry.counter(f"{prefix}.transfers").inc(link.stats.transfers)
        registry.counter(f"{prefix}.bytes_moved").inc(link.stats.bytes_moved)
        registry.gauge(f"{prefix}.total_queue_delay").set(
            link.stats.total_queue_delay
        )

    mstats = outcome.mpi_io.stats
    registry.counter("mpiio.reads").inc(mstats.reads)
    registry.counter("mpiio.writes").inc(mstats.writes)
    registry.counter("mpiio.bytes_read").inc(mstats.bytes_read)
    registry.counter("mpiio.bytes_written").inc(mstats.bytes_written)
    registry.gauge("mpiio.total_read_latency").set(mstats.total_read_latency)
    registry.gauge("mpiio.mean_read_latency").set(mstats.mean_read_latency)

    for client in outcome.clients:
        cs = client.stats
        registry.counter("client.reads_from_buffer").inc(cs.reads_from_buffer)
        registry.counter("client.reads_waited_on_prefetch").inc(
            cs.reads_waited_on_prefetch
        )
        registry.counter("client.reads_synchronous").inc(cs.reads_synchronous)
        registry.counter("client.writes_issued").inc(cs.writes_issued)
        registry.gauge("client.io_wait_time").max_update(cs.io_wait_time)
        registry.gauge("client.compute_time").max_update(cs.compute_time)

    faults = getattr(outcome, "faults", None)
    if faults is not None:
        # The fault story (`repro report --filter 'faults.*'`): what was
        # injected and how each recovery path absorbed it.
        for kind in sorted(faults.injected):
            registry.counter(f"faults.injected.{kind}").inc(
                faults.injected[kind]
            )
        fc = faults.counters
        registry.counter("faults.disk.read_errors").inc(fc.disk_read_errors)
        registry.counter("faults.disk.read_retries").inc(
            fc.disk_read_retries
        )
        registry.counter("faults.disk.reads_recovered").inc(
            fc.disk_reads_recovered
        )
        registry.counter("faults.disk.sector_remaps").inc(
            fc.disk_sector_remaps
        )
        registry.counter("faults.disk.failed_spinups").inc(
            fc.disk_failed_spinups
        )
        registry.counter("faults.disk.spinup_retries").inc(
            fc.disk_spinup_retries
        )
        registry.counter("faults.raid.degraded_reads").inc(
            fc.raid_degraded_reads
        )
        registry.counter("faults.raid.reconstructed").inc(
            fc.raid_reconstructed
        )
        registry.counter("faults.raid.failed_over").inc(fc.raid_failed_over)
        registry.counter("faults.raid.degraded_writes").inc(
            fc.raid_degraded_writes
        )
        registry.counter("faults.raid.lost_ops").inc(fc.raid_lost_ops)
        registry.counter("faults.net.retransmits").inc(fc.net_retransmits)
        registry.counter("faults.net.crash_held").inc(fc.net_crash_held)
        registry.counter("faults.net.straggled").inc(fc.net_straggled)
        registry.counter("faults.net.latency_spiked").inc(
            fc.net_latency_spiked
        )
        registry.counter("faults.sched.prefetch_timeouts").inc(
            fc.sched_prefetch_timeouts
        )
        registry.counter("faults.sched.refetches").inc(fc.sched_refetches)
        registry.counter("faults.buffer.reclaimed").inc(fc.buffer_reclaimed)
        retry_hist = registry.histogram(
            "faults.disk.retries_per_recovered_read", RETRY_BOUNDS
        )
        for retries in fc.retry_counts:
            retry_hist.observe(float(retries))

    return registry
