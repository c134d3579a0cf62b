"""Static energy-bounds analyzer (``repro analyze``).

Abstract interpretation over the IR and the compiled scheduling table:
without running the discrete-event simulator, compute for one
(workload, policy, scheme) configuration a *certified* fleet-energy
envelope ``[lower, upper]`` joules plus per-I/O-node power-state
residency envelopes, and report statically-provable problems through the
shared diagnostics engine.

Abstract domain
---------------
Every derived quantity lives in a closed :class:`Interval` and every
transformer only ever *widens* — the concrete DES value is an element of
each abstract value by construction:

* **time** — execution time ``T ∈ [T_lo, T_hi]``: the compute critical
  path below (I/O can only add time), the serialized-progress sum of all
  mutually-exclusive work items above;
* **busy** — fleet disk-serving seconds: below, the certainly-cold cache
  blocks (the polyhedral oracle of :mod:`repro.ir.dependence` proves
  their first read in time must miss) times the fastest possible
  transfer; above, every fetch/destage the runtime could issue at the
  slowest reachable speed with worst-case mechanics;
* **power** — per-drive watts bounded by the *reachable-state* bounds of
  :mod:`repro.disk.power`, which enumerate exactly the state labels a
  drive can enter under the policy's declared capabilities
  (``can_spin_down`` / ``can_ramp``) and take min/max of the one shared
  ``DiskPowerModel`` — no duplicated physics.

The energy envelope combines them:
``E_lo = n·P_floor·T_lo + (P_serve_floor − P_floor)·busy_lo`` and
``E_hi = min(flat, decomposed)`` where ``flat = n·P_ceiling·T_hi`` and
``decomposed`` charges rest-ceiling watts for all time plus marginal
serve and burst (spin-up / up-ramp) exposure.  The minimum of two sound
upper bounds is sound.

Widening
--------
Non-affine subscripts (``PHASE001``) and fault plans (``PHASE002``)
force conservative widening via :meth:`Interval.widen`, which can only
loosen an interval — the property the test suite checks by construction.

Soundness is additionally checked *differentially* in CI: for every
corpus configuration the DES-simulated energy must lie inside the
analyzer's envelope (:func:`check_envelope`, ``repro analyze --check``).

Diagnostic families registered here:

* ``ENERGY`` — envelope violations and unprofitable/impossible savings;
* ``OCC``    — statically-provable prefetch-buffer occupancy risk;
* ``PHASE``  — segments that forced conservative widening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from ..core.table import ScheduleBook
from ..disk.power import (
    power_bounds,
    rest_power_ceiling,
    serve_power_bounds,
)
from ..disk.specs import DiskSpec
from ..ir.dependence import AffineDependenceAnalyzer, certainly_cold_blocks
from ..ir.profiling import AccessTrace
from ..power import POLICY_CLASSES
from ..power.hints import nominal_node_touch_times
from ..runtime.mpi_io import REQUEST_MESSAGE_BYTES
from ..runtime.scheduler_thread import issue_window, will_prefetch
from ..storage.raid import RaidMap
from ..storage.striping import StripedFile, StripeMap, plan_layout
from .diagnostics import (
    Diagnostic,
    Report,
    Severity,
    SourceAnchor,
    register_codes,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiments.config import ExperimentConfig

__all__ = [
    "Interval",
    "EnergyEnvelope",
    "DiskResidency",
    "EnergyAnalysis",
    "analyze_energy",
    "check_envelope",
    "widen_envelope",
    "POLICY_CLASSES",
    "CORPUS_POLICIES",
    "PHASE_WIDEN_FACTOR",
    "FAULT_WIDEN_FACTOR",
]

register_codes(
    "repro.analysis.energy",
    {
        "ENERGY001": "measured energy lies outside the certified envelope",
        "ENERGY002": "spin-down fires inside a sub-breakeven idle gap",
        "ENERGY003": "policy has no power state below full-speed idle",
        "OCC001": "pessimistic prefetch occupancy reaches buffer capacity",
        "OCC002": "prefetch below min-lead degrades to synchronous read",
        "PHASE001": "non-affine subscripts: envelope widened conservatively",
        "PHASE002": "fault plan forces conservative envelope widening",
    },
)

# Capability flags are read off ``repro.power.POLICY_CLASSES`` (re-exported
# here), the same table the simulator wiring picks the disk from.  The
# online family's adaptivity changes *when* the capabilities fire, not
# *which* power states are reachable, so the same capability-derived
# bounds stay sound for it without new physics.

#: The CI soundness corpus sweeps these policies (one per capability
#: class: none / spin-down / multi-speed) for every workload × scheme.
CORPUS_POLICIES = ("default", "simple", "history")

#: Relative widening applied when the program is not affine (the
#: polyhedral oracle is unavailable and the trace-scan cold-block proof
#: carries less structure).
PHASE_WIDEN_FACTOR = 0.10

#: Relative widening applied on top of the additive fault pads when a
#: fault plan is attached.
FAULT_WIDEN_FACTOR = 0.25


# ----------------------------------------------------------------------
# Abstract domain
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` — the analyzer's abstract value."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval bounds must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float, rtol: float = 1e-9) -> bool:
        """Membership with a tiny relative tolerance for float round-off."""
        slack = rtol * max(abs(self.lo), abs(self.hi), 1.0)
        return self.lo - slack <= value <= self.hi + slack

    def widen(self, factor: float) -> "Interval":
        """Loosen by ``factor``: ``[max(0, lo·(1−f)), hi·(1+f)]``.

        Monotone by construction — for any ``f ≥ 0`` the result contains
        the original interval (bounds here are non-negative physical
        quantities, so clamping the floor at zero is still a loosening).
        """
        if factor < 0:
            raise ValueError(f"widening factor must be >= 0: {factor}")
        return Interval(max(0.0, self.lo * (1.0 - factor)),
                        self.hi * (1.0 + factor))

    def as_dict(self) -> dict[str, float]:
        return {"lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class EnergyEnvelope:
    """Certified fleet-energy bounds for one configuration."""

    workload: str
    policy: str
    scheme: bool
    energy_j: Interval
    time_s: Interval
    busy_s: Interval
    power_w: Interval          # per-drive watt floor/ceiling
    n_drives: int
    widened_by: tuple[str, ...] = ()

    @property
    def width_j(self) -> float:
        return self.energy_j.width

    @property
    def relative_width(self) -> float:
        """Width ÷ upper bound — the tightness metric ``repro analyze
        --metrics`` records as ``energy.relative_width``."""
        if self.energy_j.hi <= 0:
            return 0.0
        return self.energy_j.width / self.energy_j.hi

    def contains(self, joules: float) -> bool:
        return self.energy_j.contains(joules)

    def as_dict(self) -> dict[str, object]:
        return {
            "workload": self.workload,
            "policy": self.policy,
            "scheme": self.scheme,
            "energy_j": self.energy_j.as_dict(),
            "time_s": self.time_s.as_dict(),
            "busy_s": self.busy_s.as_dict(),
            "power_w": self.power_w.as_dict(),
            "n_drives": self.n_drives,
            "width_j": self.width_j,
            "relative_width": self.relative_width,
            "widened_by": list(self.widened_by),
        }


def widen_envelope(
    envelope: EnergyEnvelope, factor: float, code: str
) -> EnergyEnvelope:
    """Widen every abstract value of ``envelope`` by ``factor``.

    The returned envelope contains the original one (interval widening
    is monotone), so applying a widening can never *introduce* a bound
    violation — the property test pins this.
    """
    return replace(
        envelope,
        energy_j=envelope.energy_j.widen(factor),
        time_s=envelope.time_s.widen(factor),
        busy_s=envelope.busy_s.widen(factor),
        widened_by=envelope.widened_by + (code,),
    )


@dataclass(frozen=True)
class DiskResidency:
    """Per-I/O-node residency envelope (seconds over the run)."""

    node: int
    serve_s: Interval
    rest_s: Interval
    nominal_touches: int
    min_nominal_gap_s: float
    max_nominal_gap_s: float

    def as_dict(self) -> dict[str, object]:
        return {
            "node": self.node,
            "serve_s": self.serve_s.as_dict(),
            "rest_s": self.rest_s.as_dict(),
            "nominal_touches": self.nominal_touches,
            "min_nominal_gap_s": self.min_nominal_gap_s,
            "max_nominal_gap_s": self.max_nominal_gap_s,
        }


@dataclass
class EnergyAnalysis:
    """Everything one ``analyze_energy`` call produces."""

    envelope: EnergyEnvelope
    residencies: tuple[DiskResidency, ...]
    report: Report
    occupancy_peak_blocks: int

    def as_dict(self) -> dict[str, object]:
        return {
            "envelope": self.envelope.as_dict(),
            "residencies": [r.as_dict() for r in self.residencies],
            "occupancy_peak_blocks": self.occupancy_peak_blocks,
            "diagnostics": self.report.as_dict(),
        }


# ----------------------------------------------------------------------
# Helpers over the static layout
# ----------------------------------------------------------------------
def _cache_blocks_of(
    striped: StripedFile,
    smap: StripeMap,
    offset: int,
    size: int,
    block_size: int,
) -> list[tuple[int, int]]:
    """(node, node-local cache block) identities a byte extent covers."""
    out: list[tuple[int, int]] = []
    for ext in smap.map_extent(striped, offset, size):
        first = ext.node_offset // block_size
        last = (ext.node_offset + ext.size - 1) // block_size
        out.extend((ext.node, cb) for cb in range(first, last + 1))
    return out


def _io_extent(
    striped: StripedFile, block_bytes: int, block: int, blocks: int
) -> Optional[tuple[int, int]]:
    """Clipped (offset, size) of a traced I/O, or None when degenerate."""
    offset = block * block_bytes
    if offset >= striped.size:
        return None
    size = min(blocks * block_bytes, striped.size - offset)
    if size <= 0:
        return None
    return offset, size


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------
def analyze_energy(
    trace: AccessTrace,
    config: "ExperimentConfig",
    policy: str,
    scheme: bool,
    book: Optional[ScheduleBook] = None,
) -> EnergyAnalysis:
    """Statically bound the fleet energy of one configuration.

    ``book`` is the compiled schedule and is required when ``scheme`` is
    on (the occupancy and idle-gap analyses interpret the scheduling
    table); with the scheme off the trace's program-order slots are the
    nominal schedule.
    """
    if policy not in POLICY_CLASSES:
        raise ValueError(f"unknown policy {policy!r}")
    if scheme and book is None:
        raise ValueError("scheme analysis requires the compiled ScheduleBook")

    policy_cls = POLICY_CLASSES[policy]
    can_spin_down = bool(policy_cls.can_spin_down)
    can_ramp = bool(policy_cls.can_ramp)
    spec: DiskSpec = config.disk_spec(can_ramp)
    scfg = config.session_config()
    report = Report()

    n_drives = config.n_ionodes * config.disks_per_node
    floor_w, ceiling_w = power_bounds(spec, can_spin_down, can_ramp)
    rest_ceil_w = rest_power_ceiling(spec, can_spin_down, can_ramp)
    serve_floor_w, serve_ceil_w = serve_power_bounds(
        spec, can_spin_down, can_ramp
    )

    program = trace.program
    smap = StripeMap(config.stripe_size, config.n_ionodes)
    files = plan_layout(
        {name: decl.size_bytes for name, decl in program.files.items()},
        config.stripe_size,
        config.n_ionodes,
    )
    raid = RaidMap(
        config.raid_level, config.disks_per_node,
        chunk_size=config.stripe_size,
    )
    bs = config.stripe_size  # storage-cache block size == stripe size
    read_mult = 2 if scheme else 1  # prefetch + possible synchronous fallback

    # ------------------------------------------------------------------
    # Lower bounds: compute critical path + certainly-cold disk traffic
    # ------------------------------------------------------------------
    time_lo = max((p.total_compute for p in trace.processes), default=0.0)

    if program.is_affine:
        cold_blocks = AffineDependenceAnalyzer(program).certainly_cold_blocks()
        widen_codes: list[str] = []
    else:
        cold_blocks = certainly_cold_blocks(trace)
        widen_codes = ["PHASE001"]
        report.add(Diagnostic(
            "PHASE001", Severity.INFO,
            "program has non-affine subscripts; the polyhedral oracle is "
            f"unavailable and the envelope is widened by "
            f"{PHASE_WIDEN_FACTOR:.0%}",
        ))

    # A node-local cache block is *certainly* fetched when it holds a
    # certainly-cold file block and no write ever dirties any part of it
    # (a write would insert the whole stripe-sized block into the cache
    # and could turn the later read into a hit).
    written_cache: set[tuple[int, int]] = set()
    for io in trace.writes():
        striped = files[io.file]
        decl = program.files[io.file]
        extent = _io_extent(striped, decl.block_bytes, io.block, io.blocks)
        if extent is not None:
            written_cache.update(
                _cache_blocks_of(striped, smap, *extent, bs)
            )
    cold_cache: set[tuple[int, int]] = set()
    for file, block in cold_blocks:
        striped = files[file]
        decl = program.files[file]
        extent = _io_extent(striped, decl.block_bytes, block, 1)
        if extent is not None:
            cold_cache.update(_cache_blocks_of(striped, smap, *extent, bs))
    cold_cache -= written_cache

    fastest_transfer = spec.transfer_time(bs, spec.max_rpm)
    busy_lo = len(cold_cache) * fastest_transfer

    # ------------------------------------------------------------------
    # Upper bounds: serialized progress over every work item
    # ------------------------------------------------------------------
    rpm_floor = min(spec.rpm_levels) if can_ramp else spec.max_rpm
    worst_op = (
        spec.seek_time(1.0)
        + spec.avg_rotational_latency(rpm_floor)
        + spec.transfer_time(bs, rpm_floor)
    )
    latency = scfg.network_latency
    bandwidth = scfg.network_bandwidth_bps

    read_ops = 0
    write_ops = 0
    net_read_s = 0.0
    net_write_s = 0.0
    n_messages = 0
    for io in trace.all_ios():
        striped = files[io.file]
        decl = program.files[io.file]
        extent = _io_extent(striped, decl.block_bytes, io.block, io.blocks)
        if extent is None:
            continue
        for ext in smap.map_extent(striped, *extent):
            covered = (
                (ext.node_offset + ext.size - 1) // bs
                - ext.node_offset // bs + 1
            )
            wire = (
                2 * latency
                + (REQUEST_MESSAGE_BYTES + ext.size) / bandwidth
            )
            n_messages += 2
            if io.is_write:
                write_ops += covered * raid.write_op_amplification()
                net_write_s += wire
            else:
                read_ops += covered + scfg.prefetch_depth
                net_read_s += wire

    n_reads = len(trace.reads())
    read_ops_eff = read_ops * read_mult
    busy_hi = (read_ops_eff + write_ops) * worst_op

    transition_s = 0.0
    if can_spin_down:
        # Worst case every (possibly duplicated) read arrives at a drive
        # mid-spin-down: the arrival waits out the rest of the spin-down
        # plus a full spin-up before service.
        transition_s = n_reads * read_mult * (
            spec.spin_down_time + spec.spin_up_time
        )
    elif can_ramp:
        # Worst case every read interrupts an RPM step: settle (0.2 s) +
        # ramp-restart grace (0.5 s) + the interrupted step itself,
        # rounded up to one extra second of exposure.
        transition_s = n_reads * read_mult * (
            spec.rpm_change_time_per_step + 1.0
        )

    compute_all = sum(p.total_compute for p in trace.processes)
    time_hi = (
        compute_all
        + net_read_s * read_mult
        + net_write_s
        + busy_hi
        + transition_s
    )

    # ------------------------------------------------------------------
    # Fault widening: additive pads per event kind, then a relative
    # widening on the whole envelope (PHASE002).
    # ------------------------------------------------------------------
    plan = config.fault_plan
    fault_pad_s = 0.0
    busy_fault_pad_s = 0.0
    if plan is not None and plan.events:
        kinds = {ev.kind for ev in plan.events}
        if "disk.fail" in kinds:
            # Dead-disk routing can drop cold fetches entirely (RAID-0
            # lost ops), so the certain-traffic floor no longer holds —
            # and degraded RAID reads amplify the upper bound.
            busy_lo = 0.0
            amp = raid.read_op_amplification(degraded=True) - 1
            busy_fault_pad_s += read_ops_eff * amp * worst_op
        if kinds & {"disk.transient_errors", "disk.bad_sectors"}:
            busy_fault_pad_s += (
                read_ops_eff * plan.read_retry_limit * plan.read_retry_penalty
            )
        for ev in plan.events:
            if ev.kind == "disk.spinup_fail":
                attempts = max(ev.count, 1)
                backoff = sum(
                    plan.spinup_retry_base * 2**k for k in range(attempts)
                )
                fault_pad_s += attempts * spec.spin_up_time + backoff
            elif ev.kind == "node.straggle":
                fault_pad_s += ev.duration * max(ev.factor, 1.0)
            elif ev.kind == "node.crash":
                # Held transfers resume after the window; everything the
                # crash stalled may have to be replayed behind it.
                fault_pad_s += ev.duration + compute_all
            elif ev.kind == "net.loss":
                p = min(ev.probability, 0.99)
                expected_extra = p / (1.0 - p)
                fault_pad_s += (
                    (net_read_s * read_mult + net_write_s) * expected_extra
                    + n_messages * expected_extra * plan.retransmit_delay
                    + n_reads * read_mult
                    * plan.fetch_timeout * (plan.fetch_retries + 1)
                )
            elif ev.kind == "net.latency":
                fault_pad_s += n_messages * ev.extra_latency
        busy_hi += busy_fault_pad_s
        time_hi += fault_pad_s + busy_fault_pad_s
        widen_codes.append("PHASE002")
        report.add(Diagnostic(
            "PHASE002", Severity.INFO,
            f"fault plan with {len(plan.events)} event(s) adds "
            f"{fault_pad_s + busy_fault_pad_s:.3g}s of pad and widens the "
            f"envelope by {FAULT_WIDEN_FACTOR:.0%}",
        ))

    # ------------------------------------------------------------------
    # Energy envelope
    # ------------------------------------------------------------------
    energy_lo = (
        n_drives * floor_w * time_lo
        + max(0.0, serve_floor_w - floor_w) * busy_lo
    )
    flat_hi = n_drives * ceiling_w * time_hi
    decomposed_hi = (
        n_drives * rest_ceil_w * time_hi
        + max(0.0, serve_ceil_w - rest_ceil_w) * busy_hi
    )
    if can_spin_down:
        decomposed_hi += (
            max(0.0, spec.spin_up_power - rest_ceil_w)
            * read_ops_eff * spec.spin_up_time
        )
    if can_ramp:
        # Up-ramp burst power can exceed the idle ceiling for the whole
        # run in the worst case; the flat bound wins here via min().
        decomposed_hi = flat_hi
    energy_hi = min(flat_hi, decomposed_hi)

    envelope = EnergyEnvelope(
        workload=program.name,
        policy=policy,
        scheme=scheme,
        energy_j=Interval(energy_lo, max(energy_lo, energy_hi)),
        time_s=Interval(time_lo, max(time_lo, time_hi)),
        busy_s=Interval(busy_lo, max(busy_lo, busy_hi)),
        power_w=Interval(floor_w, ceiling_w),
        n_drives=n_drives,
    )
    for code in widen_codes:
        factor = (
            PHASE_WIDEN_FACTOR if code == "PHASE001" else FAULT_WIDEN_FACTOR
        )
        envelope = widen_envelope(envelope, factor, code)

    # ------------------------------------------------------------------
    # Nominal per-node access clock → residency envelopes + idle gaps.
    # Shared derivation with HybridCompilerAssist's hints: what the
    # analyzer bounds statically is exactly what the hybrid policy is
    # handed at runtime (repro.power.hints).
    # ------------------------------------------------------------------
    node_times = nominal_node_touch_times(
        trace,
        config.n_ionodes,
        config.stripe_size,
        book=book if scheme else None,
    )

    cold_per_node: dict[int, int] = {}
    for node, _cb in cold_cache:
        cold_per_node[node] = cold_per_node.get(node, 0) + 1

    breakeven = spec.breakeven_idle_seconds()
    if policy == "simple":
        trigger: Optional[float] = config.simple_timeout
        profitable = config.simple_timeout + breakeven
    elif policy == "prediction":
        trigger = breakeven * config.prediction_margin
        profitable = breakeven
    else:
        trigger = None
        profitable = 0.0

    residencies: list[DiskResidency] = []
    for node in range(config.n_ionodes):
        times = node_times[node]
        gaps = [b - a for a, b in zip(times, times[1:])]
        per_drive_hi = config.disks_per_node * time_hi
        serve_lo = (
            cold_per_node.get(node, 0) * fastest_transfer
            if config.disks_per_node == 1 and busy_lo > 0
            else 0.0
        )
        residencies.append(DiskResidency(
            node=node,
            serve_s=Interval(serve_lo, min(busy_hi, per_drive_hi)),
            rest_s=Interval(
                max(0.0, config.disks_per_node * time_lo - busy_hi),
                per_drive_hi,
            ),
            nominal_touches=len(times),
            min_nominal_gap_s=min(gaps) if gaps else math.inf,
            max_nominal_gap_s=max(gaps) if gaps else math.inf,
        ))
        if trigger is not None:
            losers = [g for g in gaps if trigger < g < profitable]
            if losers:
                report.add(Diagnostic(
                    "ENERGY002", Severity.WARNING,
                    f"{len(losers)} nominal idle gap(s) in "
                    f"[{min(losers):.1f}s, {max(losers):.1f}s] trigger "
                    f"spin-down below the profitable length "
                    f"{profitable:.1f}s (breakeven {breakeven:.1f}s)",
                    SourceAnchor(file=f"node{node}"),
                ))

    if not can_spin_down and not can_ramp:
        report.add(Diagnostic(
            "ENERGY003", Severity.INFO,
            f"policy {policy!r} declares no spin-down or ramp capability; "
            f"the fleet floor is the full-speed idle draw "
            f"({floor_w:.1f} W/drive) and no savings are reachable",
        ))

    # ------------------------------------------------------------------
    # Prefetch-buffer occupancy (interval sweep over the schedule)
    # ------------------------------------------------------------------
    occupancy_peak = 0
    if scheme:
        assert book is not None
        horizon = max(book.n_slots, trace.n_slots) + 2
        delta = [0] * (horizon + 1)
        fallbacks: dict[int, int] = {}
        for access in book.all_accesses():
            slot = access.scheduled_slot
            if slot is None:
                continue
            if will_prefetch(
                access.original_slot, slot, scfg.scheduler_min_lead
            ):
                start = issue_window(slot, scfg.scheduler_batch_slots)
                end = min(access.original_slot + 1, horizon)
                delta[start] += access.blocks
                delta[end] -= access.blocks
            elif slot < access.original_slot:
                fallbacks[access.process] = (
                    fallbacks.get(access.process, 0) + 1
                )
        level = 0
        peak_slot = 0
        for slot, d in enumerate(delta):
            level += d
            if level > occupancy_peak:
                occupancy_peak = level
                peak_slot = slot
        if occupancy_peak >= scfg.buffer_capacity_blocks:
            report.add(Diagnostic(
                "OCC001", Severity.WARNING,
                f"earliest-issue occupancy peaks at {occupancy_peak} "
                f"blocks (capacity {scfg.buffer_capacity_blocks}) — "
                f"batched prefetches can stall on a full buffer",
                SourceAnchor(slot=peak_slot),
            ))
        for process, count in sorted(fallbacks.items()):
            report.add(Diagnostic(
                "OCC002", Severity.WARNING,
                f"{count} access(es) scheduled early but inside min_lead="
                f"{scfg.scheduler_min_lead}: the runtime will fall back "
                f"to synchronous reads",
                SourceAnchor(process=process),
            ))

    return EnergyAnalysis(
        envelope=envelope,
        residencies=tuple(residencies),
        report=report,
        occupancy_peak_blocks=occupancy_peak,
    )


def check_envelope(
    envelope: EnergyEnvelope, measured_joules: float
) -> Report:
    """The differential soundness gate: DES energy must be inside.

    Returns a report with an ``ENERGY001`` error when the measured value
    escapes the envelope — CI runs this for every corpus configuration.
    """
    report = Report()
    if not envelope.contains(measured_joules):
        report.add(Diagnostic(
            "ENERGY001", Severity.ERROR,
            f"simulated energy {measured_joules:.1f} J outside certified "
            f"envelope [{envelope.energy_j.lo:.1f}, "
            f"{envelope.energy_j.hi:.1f}] J for {envelope.workload}/"
            f"{envelope.policy}/scheme={'on' if envelope.scheme else 'off'}",
        ))
    return report
