"""Command-line interface.

Thirteen subcommands:

* ``list`` — the registered workloads and policies;
* ``run`` — simulate one (workload, policy, scheme) combination and print
  the measured energy, performance and idle statistics;
* ``figure`` — regenerate one table/figure of the paper's evaluation;
* ``resume`` — re-dispatch an interrupted ``run``/``figure`` campaign
  from its ``--journal`` file; finished points return as cache hits, so
  the merged output is bit-identical to an uninterrupted run;
* ``bench`` — measure the paired traced-vs-untraced slowdown over the
  figure grid (``--trace`` names the JSONL trace it writes) and record
  it as ``BENCH_*.json``; ``--max-trace-overhead`` bounds it (the CI
  gate);
* ``report`` — render a metrics snapshot produced by ``--metrics`` as
  grouped tables (or JSON), optionally merging several snapshots;
* ``schedule`` — compile a workload's I/O schedule and print its stats
  (and, with ``--timeline``, an ASCII view of the per-node access
  density before and after scheduling);
* ``verify`` — compile a workload's schedule and statically verify it
  (slack windows, producer ordering, deadlocks, buffer capacity) without
  running the simulator; exits non-zero on error diagnostics;
* ``lint`` — static IR lint of a workload's trace (dead writes,
  never-accessed files), no schedule needed; ``--determinism`` adds the
  AST determinism pass over the package's own sources (wall-clock reads,
  unseeded randomness, unsorted directory listings);
* ``analyze`` — abstract-interpretation energy bounds: certified
  [lower, upper] energy envelopes, per-node residency intervals and
  occupancy/idle-gap diagnostics per configuration, all without
  simulating; ``--check`` additionally runs the DES and fails if any
  measured energy escapes its envelope (the CI soundness gate);
* ``tournament`` — run the online energy-policy tournament: the static
  compiler entrants vs the adaptive policies of ``repro.power.online``
  across every workload × {clean, straggler, degraded-RAID5} scenario,
  writing a deterministic ``TOURNAMENT_*.json`` leaderboard (energy,
  slowdown, strict-energy win matrix) with the static analyzer's
  envelope containment checked per cell; exits non-zero if any measured
  energy escapes its certified envelope;
* ``serve`` — run the persistent scheduling service: JSON-over-HTTP
  submission of experiment points and grids into a bounded work queue
  backed by the campaign/cache stack, with per-tenant cache
  namespaces, coalescing of identical in-flight submissions, 429 +
  ``Retry-After`` backpressure, and graceful drain on SIGTERM/SIGINT;
* ``loadtest`` — drive the synthetic load harness at a scheduling
  server (``--url``, or an in-process one on an ephemeral port when
  omitted): N concurrent keep-alive clients over a mixed workload,
  reporting requests/sec, p50/p99 latency, cache hit rate and coalesced
  submissions; exits non-zero on any failed request or a blown
  ``--p99-budget``.

``verify``, ``lint`` and ``analyze`` share one reporting contract so CI
gates consume them uniformly: ``--format {text,json}`` (``--json`` is an
alias), a *single* JSON document even when several workloads are
covered, ``--strict`` promotes warnings to failures, and exit codes mean
0 = clean, 1 = findings (errors, or warnings under ``--strict``),
2 = usage/environment error.

``run``, ``figure`` and ``tournament`` each resolve their grid through
one campaign (:class:`~repro.exec.supervise.CampaignSupervisor`), built
by one builder from the shared flags: ``--jobs N`` fans simulations out
over N worker processes, and every finished point is persisted in a
content-addressed cache (``--cache-dir``, default ``$REPRO_CACHE_DIR`` or
``.repro-cache``; disable with ``--no-cache``) so repeat invocations skip
simulation entirely.  ``--retries N`` retries a crashed point with
deterministic seeded backoff, ``--timeout SEC`` arms a per-point watchdog
(the hung worker's pool is respawned), worker deaths recover via pool
respawn + quarantine, ``--keep-going`` collects every failure instead of
aborting on the first, and ``--journal PATH`` checkpoints each point's
outcome so ``repro resume PATH`` can continue after a SIGINT or crash.
``run`` and ``figure`` also take ``--trace PATH`` (JSONL span trace of
every simulated point; forces serial) and ``--metrics PATH`` (merged
metrics snapshot; each point's snapshot comes back with its result and
they merge in digest order, so the file is the same at any ``--jobs``).

A numeric option out of range (``--jobs 0``, ``--retries -1``,
``--timeout 0``, ``--scale -1``, ``--clients 0``...) is a usage error:
exit 2 with a message, never a traceback.

Examples::

    python -m repro list
    python -m repro run --app sar --policy history --scheme --scale 0.1
    python -m repro run --app sweep --policy simple
    python -m repro run --app sar --policy simple --scheme \\
        --trace out.jsonl --metrics out.json
    python -m repro report out.json --filter 'drive.*'
    python -m repro figure fig12c --scale 0.1 --jobs 4
    python -m repro figure fig12c --scale 0.1 --jobs 4 \\
        --retries 2 --timeout 300 --journal fig12c.journal
    python -m repro resume fig12c.journal
    python -m repro tournament --scale 0.05 --jobs 4
    python -m repro tournament --workloads sar,hf --entrants hybrid,forecast
    python -m repro bench --quick --trace trace.jsonl --max-trace-overhead 0.05
    python -m repro schedule --app hf --scale 0.1 --timeline
    python -m repro verify --scale 0.1           # all six workloads
    python -m repro verify --app madbench2 --json
    python -m repro lint --app astro
    python -m repro lint --determinism --strict
    python -m repro analyze --app hf --scale 0.1
    python -m repro analyze --check --scale 0.05 --format json
    python -m repro serve --port 8177 --scale 0.1
    python -m repro loadtest --clients 32 --requests 4 --scale 0.05
    python -m repro loadtest --url http://127.0.0.1:8177 --clients 32
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn, Optional, Sequence

from .experiments import (
    APPS,
    ONLINE_POLICIES,
    POLICIES,
    Runner,
    default_config,
)
from .experiments.figures import FIGURES
from .metrics import format_percent, format_table
from .workloads import all_workloads

__all__ = ["main"]

#: Every registered workload — the paper's six (APPS) plus extras like
#: ``sweep``; ``--app`` accepts any of them, while the all-apps defaults
#: of verify/lint/analyze stay pinned to the paper corpus.
WORKLOAD_CHOICES = tuple(w.name for w in all_workloads())


def _path(value: str) -> str:
    """argparse ``type`` of every filesystem-path option.

    Parsing keeps the string as given; the marker tells
    :func:`_campaign_argv` to journal the value as an absolute path.
    """
    return value


def _positive_int(value: str) -> int:
    """argparse ``type`` for counts that must be at least 1."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {value}")
    return number


def _nonnegative_int(value: str) -> int:
    """argparse ``type`` for counts that may be 0."""
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {value}")
    return number


def _positive_float(value: str) -> float:
    """argparse ``type`` for durations that must be finite and > 0."""
    import math

    number = float(value)
    if not (math.isfinite(number) and number > 0):
        raise argparse.ArgumentTypeError(f"must be > 0: {value}")
    return number


def _add_exec_flags(sub_parser: argparse.ArgumentParser) -> None:
    """Campaign knobs shared by the simulating subcommands."""
    sub_parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for the run grid (default: 1 = in-process)")
    sub_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR", type=_path,
        help="result cache directory (default: $REPRO_CACHE_DIR or "
        "./.repro-cache)")
    sub_parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the on-disk result cache")
    sub_parser.add_argument(
        "--timeout", type=_positive_float, default=None, metavar="SEC",
        help="per-point watchdog: a point still running after SEC seconds "
        "has its worker pool respawned and is retried")
    sub_parser.add_argument(
        "--retries", type=_nonnegative_int, default=1, metavar="N",
        help="extra attempts for a crashed/timed-out point, with "
        "deterministic seeded backoff (default: 1)")
    group = sub_parser.add_mutually_exclusive_group()
    group.add_argument(
        "--keep-going", action="store_true",
        help="collect every point failure and finish the rest of the "
        "campaign instead of aborting on the first")
    group.add_argument(
        "--fail-fast", action="store_true",
        help="abort on the first point failure (the default; completed "
        "siblings' results are still cached)")
    sub_parser.add_argument(
        "--journal", default=None, metavar="PATH", type=_path,
        help="append each point's outcome to a JSONL campaign journal; "
        "continue an interrupted campaign with 'repro resume PATH'")


def _add_obs_flags(sub_parser: argparse.ArgumentParser) -> None:
    """Observability outputs shared by the simulating subcommands."""
    sub_parser.add_argument(
        "--trace", default=None, metavar="PATH", type=_path,
        help="write a JSONL span trace of every simulated point "
        "(forces serial execution)")
    sub_parser.add_argument(
        "--trace-detail", action="store_true",
        help="with --trace: also record every MPI-IO call, disk request, "
        "network transfer and I/O-node op (roughly 20x more records)")
    sub_parser.add_argument(
        "--metrics", default=None, metavar="PATH", type=_path,
        help="write a merged metrics snapshot (JSON) of every simulated "
        "point; inspect with 'repro report'")


def _add_report_flags(sub_parser: argparse.ArgumentParser) -> None:
    """The uniform reporting contract of verify/lint/analyze."""
    group = sub_parser.add_mutually_exclusive_group()
    group.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text); JSON is always one document")
    group.add_argument(
        "--json", action="store_true",
        help="shorthand for --format json")
    sub_parser.add_argument(
        "--strict", action="store_true",
        help="treat warning diagnostics as failures (exit 1)")


def _resolved_format(args) -> str:
    return "json" if getattr(args, "json", False) else args.format


def _reports_exit(reports, strict: bool) -> int:
    """0 = clean, 1 = errors (or warnings under --strict)."""
    return 1 if any(
        r.has_errors or (strict and r.has_warnings) for r in reports
    ) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Software-directed data access scheduling (ICDCS 2012) "
        "— reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and policies")

    run_p = sub.add_parser("run", help="simulate one configuration")
    run_p.add_argument("--app", required=True, choices=WORKLOAD_CHOICES)
    run_p.add_argument(
        "--policy", default="default",
        choices=("default",) + POLICIES + ONLINE_POLICIES,
    )
    run_p.add_argument("--scheme", action="store_true",
                       help="enable the compiler-directed scheduling")
    run_p.add_argument("--reorder", action="store_true",
                       help="straggler-aware reordering of each scheduler "
                       "issue window (needs --scheme to have any effect)")
    run_p.add_argument("--scale", type=float, default=None,
                       help="workload scale (default: REPRO_SCALE or 0.25)")
    run_p.add_argument("--clients", type=int, default=None)
    run_p.add_argument("--ionodes", type=int, default=None)
    run_p.add_argument("--delta", type=int, default=None)
    run_p.add_argument("--theta", type=int, default=None)
    run_p.add_argument("--faults", default=None, metavar="PLAN.json",
                       type=_path,
                       help="inject the given fault plan (JSON, see "
                       "repro.faults); fault counters land in --metrics")
    _add_exec_flags(run_p)
    _add_obs_flags(run_p)

    fig_p = sub.add_parser("figure", help="regenerate a paper table/figure")
    fig_p.add_argument("name", choices=sorted(FIGURES))
    fig_p.add_argument("--scale", type=float, default=None)
    fig_p.add_argument("--faults", default=None, metavar="PLAN.json",
                       type=_path,
                       help="inject the given fault plan into every grid "
                       "point of the figure")
    _add_exec_flags(fig_p)
    _add_obs_flags(fig_p)

    resume_p = sub.add_parser(
        "resume",
        help="continue an interrupted campaign from its --journal file",
    )
    resume_p.add_argument("journal", metavar="JOURNAL",
                          help="journal written by run/figure --journal")
    resume_p.add_argument("--jobs", type=_positive_int, default=None,
                          metavar="N",
                          help="override the journaled worker count")

    bench_p = sub.add_parser(
        "bench",
        help="measure the traced-vs-untraced slowdown as a "
        "BENCH_*.json record",
    )
    bench_p.add_argument("--quick", action="store_true",
                         help="small grid at scale 0.05 (CI smoke)")
    bench_p.add_argument("--scale", type=float, default=None)
    bench_p.add_argument("--figures", nargs="*", default=None,
                         metavar="FIG", help="subset of figures to grid")
    bench_p.add_argument("--output-dir", default=".", metavar="DIR",
                         help="where to write BENCH_<stamp>.json")
    bench_p.add_argument("--trace", required=True, metavar="PATH",
                         help="write the traced passes' JSONL span trace "
                         "to PATH")
    bench_p.add_argument("--repeats", type=_positive_int, default=1,
                         metavar="N",
                         help="repeat the trace-overhead measurement N "
                         "times and keep the median (for stable ratios "
                         "on noisy machines)")
    bench_p.add_argument("--max-trace-overhead", type=float, default=None,
                         metavar="FRAC",
                         help="exit non-zero if the traced pass is more "
                         "than FRAC slower than the untraced one "
                         "(e.g. 0.05 = 5%%)")

    tour_p = sub.add_parser(
        "tournament",
        help="race static vs online power policies across fault scenarios",
    )
    tour_p.add_argument("--scale", type=float, default=None,
                        help="workload scale (default: REPRO_SCALE or 0.25)")
    tour_p.add_argument("--workloads", default=None, metavar="A,B,...",
                        help="comma-separated workloads "
                        "(default: every registered workload)")
    tour_p.add_argument("--entrants", default=None, metavar="E,F,...",
                        help="comma-separated entrant names "
                        "(default: the full field; see repro list)")
    tour_p.add_argument("--scenarios", default=None, metavar="S,T,...",
                        help="comma-separated scenarios out of "
                        "clean,straggler,degraded (default: all three)")
    tour_p.add_argument("--output-dir", default=".", metavar="DIR",
                        type=_path,
                        help="where to write TOURNAMENT_<stamp>.json")
    tour_p.add_argument("--no-record", action="store_true",
                        help="print the leaderboard without writing a "
                        "TOURNAMENT_*.json record")
    tour_p.add_argument("--json", action="store_true",
                        help="emit the full tournament document as JSON")
    _add_exec_flags(tour_p)

    serve_p = sub.add_parser(
        "serve", help="run the persistent scheduling service (JSON/HTTP)"
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8177,
                         help="TCP port (default: 8177; 0 = ephemeral)")
    serve_p.add_argument("--scale", type=float, default=None,
                         help="base workload scale submissions override "
                         "(default: REPRO_SCALE or 0.25)")
    serve_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes per batch (default: 1 = "
                         "in-process)")
    serve_p.add_argument("--workers", type=int, default=2, metavar="N",
                         help="concurrent batch workers (default: 2)")
    serve_p.add_argument("--queue-limit", type=int, default=256, metavar="N",
                         help="bounded work-queue depth; submissions beyond "
                         "it get 429 + Retry-After (default: 256)")
    serve_p.add_argument("--retries", type=int, default=1, metavar="N",
                         help="extra attempts per failed point (default: 1)")
    serve_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="result cache root; tenants live in "
                         "DIR/<tenant> (default: $REPRO_CACHE_DIR or "
                         "./.repro-cache)")
    serve_p.add_argument("--no-cache", action="store_true",
                         help="serve without a result cache (every "
                         "submission simulates)")
    serve_p.add_argument("--wal", default=None, metavar="WAL.jsonl",
                         help="admission write-ahead log: every accepted "
                         "submission is fsynced here before its 202")
    serve_p.add_argument("--recover", default=None, metavar="WAL.jsonl",
                         help="replay WAL.jsonl on start (re-enqueue "
                         "accepted-but-unfinished jobs), then keep "
                         "journaling to it; implies --wal WAL.jsonl")
    serve_p.add_argument("--chaos", default=None, metavar="PLAN.json",
                         help="fault plan whose server.* events sabotage "
                         "the serving path deterministically (counters: "
                         "server.chaos.*)")
    serve_p.add_argument("--idle-timeout", type=float, default=30.0,
                         metavar="SEC",
                         help="server-side cap on long-polls and idle "
                         "event streams (default: 30)")

    load_p = sub.add_parser(
        "loadtest", help="drive the synthetic load harness at a server"
    )
    load_p.add_argument("--url", default=None, metavar="URL",
                        help="target server, e.g. http://127.0.0.1:8177 "
                        "(default: spin one up in-process on an ephemeral "
                        "port with a temporary cache)")
    load_p.add_argument("--clients", type=_positive_int, default=32,
                        metavar="N",
                        help="concurrent clients, one keep-alive "
                        "connection each (default: 32)")
    load_p.add_argument("--requests", type=_positive_int, default=4,
                        metavar="N",
                        help="requests per client (default: 4)")
    load_p.add_argument("--apps", default="sar,hf", metavar="A,B,...",
                        help="comma-separated workload mix "
                        "(default: sar,hf)")
    load_p.add_argument("--policy", default="simple",
                        choices=("default",) + POLICIES,
                        help="power policy of every mix point "
                        "(default: simple)")
    load_p.add_argument("--schemes", choices=("off", "on", "both"),
                        default="both",
                        help="scheme variants in the mix (default: both)")
    load_p.add_argument("--tenant", default="default",
                        help="tenant namespace to submit under")
    load_p.add_argument("--scale", type=float, default=None,
                        help="workload scale of the in-process server "
                        "(ignored with --url)")
    load_p.add_argument("--no-warm", action="store_true",
                        help="skip the cache-warming phase (the burst "
                        "then measures simulation, not serving)")
    load_p.add_argument("--p99-budget", type=float, default=None,
                        metavar="SEC",
                        help="exit non-zero if p99 latency exceeds SEC "
                        "seconds")
    load_p.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")

    report_p = sub.add_parser(
        "report", help="render a metrics snapshot written by --metrics"
    )
    report_p.add_argument("paths", nargs="+", metavar="SNAPSHOT",
                          help="snapshot file(s); several are merged")
    report_p.add_argument("--json", action="store_true",
                          help="emit the (merged) snapshot as JSON")
    report_p.add_argument("--filter", default=None, metavar="GLOB",
                          help="only metrics matching this fnmatch pattern "
                          "(e.g. 'drive.*' or '*.energy.*')")

    sched_p = sub.add_parser("schedule", help="compile and inspect a schedule")
    sched_p.add_argument("--app", required=True, choices=WORKLOAD_CHOICES)
    sched_p.add_argument("--scale", type=float, default=None)
    sched_p.add_argument("--timeline", action="store_true",
                         help="print per-node I/O density before/after")
    sched_p.add_argument("--width", type=int, default=72,
                         help="timeline width in columns")

    verify_p = sub.add_parser(
        "verify", help="statically verify a compiled schedule (no simulation)"
    )
    verify_p.add_argument("--app", default=None, choices=WORKLOAD_CHOICES,
                          help="workload to verify (default: all)")
    verify_p.add_argument("--scale", type=float, default=None)
    verify_p.add_argument("--clients", type=int, default=None)
    verify_p.add_argument("--ionodes", type=int, default=None)
    verify_p.add_argument("--delta", type=int, default=None)
    verify_p.add_argument("--theta", type=int, default=None)
    verify_p.add_argument("--no-lint", action="store_true",
                          help="skip the IR lint pass")
    _add_report_flags(verify_p)

    lint_p = sub.add_parser("lint", help="lint a workload's IR trace")
    lint_p.add_argument("--app", default=None, choices=WORKLOAD_CHOICES,
                        help="workload to lint (default: all)")
    lint_p.add_argument("--scale", type=float, default=None)
    lint_p.add_argument("--determinism", action="store_true",
                        help="also AST-lint the repro package sources for "
                        "wall-clock reads, unseeded randomness and "
                        "unsorted directory listings (LINT1xx)")
    _add_report_flags(lint_p)

    analyze_p = sub.add_parser(
        "analyze",
        help="certify static energy bounds without simulating",
    )
    analyze_p.add_argument("--app", default=None, choices=WORKLOAD_CHOICES,
                           help="workload to analyze (default: all)")
    analyze_p.add_argument(
        "--policy", default=None,
        choices=("default",) + POLICIES + ONLINE_POLICIES,
        help="power policy to analyze (default: the soundness-corpus "
        "sweep default/simple/history)")
    analyze_p.add_argument(
        "--scheme", choices=("both", "on", "off"), default="both",
        help="analyze with the scheduling scheme on, off or both "
        "(default: both)")
    analyze_p.add_argument("--scale", type=float, default=None)
    analyze_p.add_argument("--clients", type=int, default=None)
    analyze_p.add_argument("--ionodes", type=int, default=None)
    analyze_p.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="analyze under this fault plan (the envelope widens "
        "conservatively, PHASE002)")
    analyze_p.add_argument(
        "--check", action="store_true",
        help="also run the DES for every configuration and fail "
        "(ENERGY001) if a measured energy escapes its envelope")
    analyze_p.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write envelope-width gauges as a metrics snapshot "
        "('repro report' merges it with simulation snapshots)")
    _add_report_flags(analyze_p)
    return parser


def _usage_error(args, message) -> NoReturn:
    """Exit 2 with ``message``, in argparse's format."""
    print(f"repro {args.command}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _base_config(args, scale: Optional[float]) -> "ExperimentConfig":
    """Table II at ``scale`` (None: ``REPRO_SCALE`` or 0.25).  A scale the
    config refuses (not finite and positive) is a usage error."""
    try:
        return default_config(scale=scale)
    except ValueError as exc:
        _usage_error(args, exc)


def _config(args) -> "ExperimentConfig":
    """The invocation's config: ``--scale`` plus the subcommand's field
    overrides.  A value the config refuses (zero clients or I/O nodes, a
    bad scale) is a usage error."""
    cfg = _base_config(args, args.scale)
    overrides = {}
    for field, attr in (
        ("n_clients", "clients"),
        ("n_ionodes", "ionodes"),
        ("delta", "delta"),
        ("theta", "theta"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "reorder", False):
        overrides["reorder"] = True
    if getattr(args, "faults", None):
        from .faults import load_plan

        overrides["fault_plan"] = load_plan(args.faults)
    try:
        return cfg.scaled(**overrides) if overrides else cfg
    except ValueError as exc:
        _usage_error(args, exc)


def _resolved_cache_dir(args) -> Optional[str]:
    """The cache directory this invocation will use (None = --no-cache),
    absolute so a journal can be resumed from any working directory."""
    import os

    if getattr(args, "no_cache", False):
        return None
    return os.path.abspath(
        getattr(args, "cache_dir", None)
        or os.environ.get("REPRO_CACHE_DIR")
        or ".repro-cache"
    )


#: Options whose ``None`` default is resolved from the environment at run
#: time (dest -> resolver).  A journal pins the resolved value: resuming
#: under a different environment must replay the launch-time grid.
_ENV_RESOLVED = {
    "scale": lambda args: default_config(scale=args.scale).workload_scale,
    "cache_dir": lambda args: _resolved_cache_dir(args) or args.cache_dir,
}


def _campaign_argv(args, command: str) -> list[str]:
    """The canonical argv a journal header records for ``repro resume``.

    Derived from the subcommand parser's own actions, so no option can
    drift out of it: an option is recorded when its parsed value differs
    from the parser default.  Environment-resolved values
    (:data:`_ENV_RESOLVED`) and paths (``type=_path``, made absolute so
    resume works from any working directory) are always recorded.
    """
    import os

    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    argv: list[str] = [command]
    for action in subparsers.choices[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        resolve = _ENV_RESOLVED.get(action.dest)
        value = resolve(args) if resolve else getattr(args, action.dest)
        if value is None:
            continue
        if action.type is _path:
            value = os.path.abspath(value)
        elif resolve is None and value == action.default:
            continue
        if not action.option_strings:
            argv.append(str(value))
        elif action.nargs == 0:
            argv.append(action.option_strings[0])
        else:
            argv += [action.option_strings[0], str(value)]
    return argv


def _build_campaign(args, command: str, baseline: bool = False):
    """The campaign of a run/figure/tournament invocation, from the shared
    --jobs/--cache-dir/--retries/--timeout/--keep-going/--journal flags
    and the obs flags.

    ``baseline=True`` builds ``run``'s unobserved baseline pass: the same
    cache, jobs and retry policy, but no telemetry outputs and no
    journal.
    """
    from .exec import CampaignJournal, CampaignSupervisor, ResultCache

    cache_dir = _resolved_cache_dir(args)
    journal = None
    if args.journal and not baseline:
        journal = CampaignJournal(
            args.journal, argv=_campaign_argv(args, command)
        )
    return CampaignSupervisor(
        jobs=args.jobs,
        cache=ResultCache(cache_dir) if cache_dir is not None else None,
        metrics=bool(getattr(args, "metrics", None)) and not baseline,
        trace_path=None if baseline else getattr(args, "trace", None),
        trace_detail=getattr(args, "trace_detail", False),
        timeout=args.timeout,
        retries=args.retries,
        keep_going=args.keep_going,
        journal=journal,
    )


def _campaign(args, campaign, body):
    """Run ``body()`` under the campaign exit contract of run, figure and
    tournament; returns ``(value, None)``, or ``(None, exit_code)``.

    An interrupt exits 130 with the ``repro resume`` hint, a failed point
    exits 1, and the journal is closed either way.
    """
    from .exec import CampaignFailed, PointTimeout, VerifyFailure, WorkerFailure

    try:
        return body(), None
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        if args.journal:
            print(
                f"resume with: repro resume {args.journal}", file=sys.stderr
            )
        return None, 130
    except (VerifyFailure, WorkerFailure, PointTimeout, CampaignFailed) as exc:
        print(f"campaign failed: {exc}", file=sys.stderr)
        return None, 1
    finally:
        if campaign.journal is not None:
            campaign.journal.close()


def _report_failures(report, out) -> None:
    print(report.summary(), file=sys.stderr)
    for failure in report.failures:
        print(
            f"  {failure.label}: [{failure.outcome}] {failure.error}",
            file=sys.stderr,
        )


def _finish_obs(args, campaign, report) -> None:
    """Write the report's merged metrics to --metrics; announce outputs."""
    if report.metrics is not None:
        from .obs.metrics import write_snapshot

        write_snapshot(report.metrics, args.metrics)
        print(f"[obs] metrics written to {args.metrics}", file=sys.stderr)
    if campaign.trace_path is not None:
        print(f"[obs] trace written to {campaign.trace_path}", file=sys.stderr)


def cmd_list(_args, out) -> int:
    rows = [(w.name, "affine" if w.affine else "profiled", w.description)
            for w in all_workloads()]
    print(format_table(("workload", "slack path", "description"), rows),
          file=out)
    print(file=out)
    print("policies: default " + " ".join(POLICIES + ONLINE_POLICIES),
          file=out)
    from .experiments import DEFAULT_ENTRANTS

    print("tournament entrants: " + " ".join(
        e.name for e in DEFAULT_ENTRANTS), file=out)
    return 0


def cmd_run(args, out) -> int:
    from .exec import RunPoint

    cfg = _config(args)
    campaign = _build_campaign(args, "run")
    runner = Runner(cfg)
    base_point = RunPoint(args.app, "default", False, cfg)
    target_point = RunPoint(args.app, args.policy, args.scheme, cfg)

    def simulate():
        points = [base_point, target_point]
        if campaign.observed and target_point != base_point:
            # Only the requested configuration runs instrumented: merging
            # the baseline's gauges in (max semantics) would make the
            # snapshot describe neither run — in particular the
            # per-family energy gauges would no longer sum to the total
            # exactly.
            _build_campaign(args, "run", baseline=True).warm_runner(
                runner, [base_point]
            ).raise_if_failed()
            points = [target_point]
        return campaign.warm_runner(runner, points)

    report, code = _campaign(args, campaign, simulate)
    if code is not None:
        return code
    if report.failures:
        _report_failures(report, out)
        return 1
    _finish_obs(args, campaign, report)
    base = runner.baseline(args.app)
    run = runner.run(args.app, args.policy, args.scheme)
    rows = [
        ("execution time", f"{run.execution_time:.1f} s"),
        ("disk energy", f"{run.energy_joules:,.1f} J"),
        ("vs default energy",
         format_percent(run.energy_joules / base.energy_joules)),
        ("energy saving",
         format_percent(1 - run.energy_joules / base.energy_joules)),
        ("perf degradation",
         format_percent(run.execution_time / base.execution_time - 1)),
        ("idle periods", run.idle_cdf.count),
        ("mean idle period", f"{run.idle_cdf.mean_seconds:.2f} s"),
        ("idle ≤100ms", format_percent(run.idle_cdf.fraction_at_most(100))),
        ("idle ≤5s", format_percent(run.idle_cdf.fraction_at_most(5000))),
    ]
    if args.scheme:
        rows.append(("prefetches", run.prefetches))
        rows.append(("buffer hits", run.buffer_hits))
    title = (
        f"{args.app} / {args.policy} / "
        f"{'with' if args.scheme else 'without'} scheme "
        f"(scale {cfg.workload_scale})"
    )
    print(format_table(("metric", "value"), rows, title=title), file=out)
    return 0


def cmd_figure(args, out) -> int:
    from .exec import figure_points

    cfg = _config(args)
    campaign = _build_campaign(args, "figure")
    runner = Runner(cfg)
    report, code = _campaign(
        args, campaign,
        lambda: campaign.warm_runner(runner, figure_points(args.name, cfg)),
    )
    if code is not None:
        return code
    if report.failures:
        # Rendering would silently re-simulate the missing points
        # in-process; report the partial campaign instead.
        _report_failures(report, out)
        return 1
    _finish_obs(args, campaign, report)
    result = FIGURES[args.name](runner)
    print(result.text, file=out)
    counts = report.counts()
    print(
        f"[exec] points={len(report.outcomes)} cache_hits={counts['cached']} "
        f"simulated={counts['ok']} jobs={args.jobs}",
        file=sys.stderr,
    )
    return 0


def cmd_resume(args, out) -> int:
    """Re-dispatch the argv a campaign journal recorded at launch."""
    from .exec import load_journal

    try:
        header, entries = load_journal(args.journal)
    except (OSError, ValueError) as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    argv = [str(piece) for piece in header["argv"]]
    if args.jobs is not None:
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = str(args.jobs)
        else:
            argv += ["--jobs", str(args.jobs)]
    outcomes: dict[str, int] = {}
    for entry in entries.values():
        outcome = entry.get("outcome", "?")
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    journaled = " ".join(
        f"{name}={count}" for name, count in sorted(outcomes.items())
    )
    print(
        f"[resume] {len(entries)} journaled point(s)"
        + (f" ({journaled})" if journaled else "")
        + f"; re-dispatching: {' '.join(argv)}",
        file=sys.stderr,
    )
    resumed = build_parser().parse_args(argv)
    return _HANDLERS[resumed.command](resumed, out)


def cmd_bench(args, out) -> int:
    from .exec import (
        GRID_FIGURES,
        QUICK_FIGURES,
        run_bench,
        write_bench_record,
    )

    scale = args.scale if args.scale is not None else (
        0.05 if args.quick else None
    )
    figures = args.figures or (QUICK_FIGURES if args.quick else GRID_FIGURES)
    unknown = sorted(set(figures) - set(GRID_FIGURES))
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    record = run_bench(
        config=_base_config(args, scale),
        figures=tuple(figures),
        trace_path=args.trace,
        repeats=args.repeats,
    )
    path = write_bench_record(record, args.output_dir)
    rows = [(k, v) for k, v in record.items()
            if isinstance(v, (int, float, str)) and k != "kind"]
    print(format_table(("field", "value"), rows, title="repro bench"),
          file=out)
    print(f"record written to {path}", file=out)
    if args.max_trace_overhead is None:
        return 0
    overhead = record["trace_overhead"]
    if overhead > args.max_trace_overhead:
        print(
            f"trace overhead {overhead:.1%} exceeds the "
            f"{args.max_trace_overhead:.1%} budget",
            file=sys.stderr,
        )
        return 1
    print(
        f"trace overhead {overhead:.1%} within the "
        f"{args.max_trace_overhead:.1%} budget",
        file=out,
    )
    return 0


def _loadtest_table(report: dict, title: str) -> str:
    """Render a load-harness report dict as the standard two-column table."""
    latency = report.get("latency_ms", {})
    rows = [
        ("clients", report.get("clients")),
        ("requests", report.get("requests")),
        ("ok", report.get("ok")),
        ("failed", report.get("failed")),
        ("requests/sec", report.get("rps")),
        ("p50 latency", f"{latency.get('p50', 0.0):.1f} ms"),
        ("p99 latency", f"{latency.get('p99', 0.0):.1f} ms"),
        ("mean latency", f"{latency.get('mean', 0.0):.1f} ms"),
        ("cache hit rate", format_percent(report.get("cache_hit_rate", 0.0))),
        ("coalesced", report.get("batched")),
        ("simulated", report.get("simulated")),
        ("queue depth peak", int(report.get("queue_depth_peak", 0))),
        ("429 retries", report.get("rejected_retries")),
        ("transport retries", report.get("retried", 0)),
        ("deduplicated", report.get("deduplicated", 0)),
        ("lost admissions", report.get("lost", 0)),
    ]
    return format_table(("metric", "value"), rows, title=title)


def cmd_tournament(args, out) -> int:
    import json as json_mod

    from .experiments import (
        DEFAULT_ENTRANTS,
        SCENARIOS,
        run_tournament,
        write_tournament_record,
    )
    from .experiments.tournament import TOURNAMENT_WORKLOADS

    def _csv(value, choices, what):
        if value is None:
            return None
        picked = tuple(v.strip() for v in value.split(",") if v.strip())
        bad = sorted(set(picked) - set(choices))
        if bad:
            raise ValueError(
                f"unknown {what}: {', '.join(bad)} "
                f"(choose from {', '.join(choices)})"
            )
        return picked

    by_name = {e.name: e for e in DEFAULT_ENTRANTS}
    try:
        workloads = _csv(args.workloads, WORKLOAD_CHOICES, "workload(s)")
        entrant_names = _csv(args.entrants, tuple(by_name), "entrant(s)")
        scenarios = _csv(args.scenarios, SCENARIOS, "scenario(s)")
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    cfg = _config(args)
    campaign = _build_campaign(args, "tournament")
    doc, code = _campaign(args, campaign, lambda: run_tournament(
        cfg,
        workloads=workloads or TOURNAMENT_WORKLOADS,
        entrants=(
            tuple(by_name[n] for n in entrant_names)
            if entrant_names else DEFAULT_ENTRANTS
        ),
        scenarios=scenarios or SCENARIOS,
        supervisor=campaign,
    ))
    if code is not None:
        return code

    if args.json:
        print(json_mod.dumps(doc, indent=2, sort_keys=True), file=out)
    else:
        rows = [
            (row["entrant"],
             f"{row['mean_normalized_energy']:.3f}",
             f"{row['mean_slowdown']:.3f}",
             f"{row['wins']}/{row['max_wins']}",
             "yes" if row["contained"] else "NO")
            for row in doc["leaderboard"]
        ]
        title = (
            f"policy tournament (scale {doc['scale']}; "
            f"{len(doc['workloads'])} workloads x "
            f"{len(doc['scenarios'])} scenarios)"
        )
        print(format_table(
            ("entrant", "mean norm. energy", "mean slowdown", "wins",
             "in envelope"),
            rows, title=title,
        ), file=out)
        names = [e["name"] for e in doc["entrants"]]
        matrix_rows = [
            tuple([a] + [
                "-" if a == b else str(doc["win_matrix"][a][b])
                for b in names
            ])
            for a in names
        ]
        print(file=out)
        print(format_table(
            ("wins of \\ over",) + tuple(names), matrix_rows,
            title="strict-energy win matrix (row beats column)",
        ), file=out)
    if not args.no_record:
        path = write_tournament_record(doc, args.output_dir)
        print(f"record written to {path}",
              file=sys.stderr if args.json else out)
    if not doc["all_contained"]:
        escaped = [
            f"{c['scenario']}/{c['workload']}/{c['entrant']}"
            for c in doc["cells"] if not c["contained"]
        ]
        print(
            "measured energy escaped its certified envelope for: "
            + ", ".join(escaped),
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_serve(args, out) -> int:
    import asyncio
    import signal
    from pathlib import Path

    from .serve import SchedulingServer, ServerConfig

    cfg = _config(args)
    cache_dir = _resolved_cache_dir(args)
    if args.recover is not None and args.wal is not None \
            and args.recover != args.wal:
        print("--recover and --wal name different journals; pick one",
              file=sys.stderr)
        return 2
    wal = args.recover if args.recover is not None else args.wal
    chaos_plan = None
    if args.chaos:
        from .faults import load_plan

        try:
            chaos_plan = load_plan(args.chaos)
        except (OSError, ValueError, KeyError) as exc:
            print(f"bad chaos plan {args.chaos}: {exc}", file=sys.stderr)
            return 2
    try:
        server_config = ServerConfig(
            host=args.host,
            port=args.port,
            cache_root=Path(cache_dir) if cache_dir is not None else None,
            base_config=cfg,
            jobs=args.jobs,
            workers=args.workers,
            queue_limit=args.queue_limit,
            retries=args.retries,
            wal_path=Path(wal) if wal is not None else None,
            recover=args.recover is not None,
            chaos_plan=chaos_plan,
            idle_timeout=args.idle_timeout,
        )
    except ValueError as exc:
        print(f"bad server configuration: {exc}", file=sys.stderr)
        return 2

    async def _main() -> None:
        server = SchedulingServer(server_config)
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, server.request_shutdown)
        replayed = server.metrics.counter("server.recovery.replayed").value \
            if server_config.recover else 0
        print(
            f"[serve] listening on {server.address} "
            f"(cache: {cache_dir or 'disabled'}, "
            f"scale {cfg.workload_scale}, "
            f"wal: {wal or 'off'}"
            + (f", replayed {replayed} job(s)" if server_config.recover
               else "")
            + (", chaos armed" if chaos_plan is not None else "")
            + "); SIGTERM drains",
            file=sys.stderr,
        )
        await server.wait_stopped()
        await server.stop()
        print("[serve] drained, shut down cleanly", file=sys.stderr)

    try:
        asyncio.run(_main())
    except ValueError as exc:
        # e.g. a populated WAL started without --recover
        print(f"[serve] {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_loadtest(args, out) -> int:
    import asyncio
    import json as json_mod
    import tempfile
    from pathlib import Path
    from urllib.parse import urlsplit

    from .serve import LoadgenConfig, run_inprocess_loadtest, run_loadgen

    apps = tuple(a.strip() for a in args.apps.split(",") if a.strip())
    bad = sorted(set(apps) - set(WORKLOAD_CHOICES))
    if bad:
        print(f"unknown workload(s): {', '.join(bad)}", file=sys.stderr)
        return 2
    schemes = {"off": (False,), "on": (True,), "both": (False, True)}[
        args.schemes
    ]
    mix = [
        {"workload": app, "policy": args.policy, "scheme": scheme}
        for app in apps
        for scheme in schemes
    ]

    try:
        if args.url:
            split = urlsplit(args.url)
            if not split.hostname:
                print(f"bad --url {args.url!r}", file=sys.stderr)
                return 2
            report = asyncio.run(
                run_loadgen(
                    LoadgenConfig(
                        host=split.hostname,
                        port=split.port or 8177,
                        clients=args.clients,
                        requests=args.requests,
                        mix=tuple(mix),
                        tenant=args.tenant,
                        warm=not args.no_warm,
                    )
                )
            )
        else:
            cfg = _base_config(args, args.scale)
            with tempfile.TemporaryDirectory(
                prefix="repro-loadtest-cache-"
            ) as td:
                report = asyncio.run(
                    run_inprocess_loadtest(
                        cfg,
                        Path(td),
                        clients=args.clients,
                        requests=args.requests,
                        mix=mix,
                        warm=not args.no_warm,
                    )
                )
    except (ConnectionError, OSError, RuntimeError) as exc:
        print(f"loadtest failed: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json_mod.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        print(_loadtest_table(report, title="repro loadtest"), file=out)
        for err in report.get("errors", []):
            print(f"  error: {err}", file=sys.stderr)

    if report["failed"]:
        print(f"{report['failed']} request(s) failed", file=sys.stderr)
        return 1
    if args.p99_budget is not None:
        p99_s = report["latency_ms"]["p99"] / 1e3
        if p99_s > args.p99_budget:
            print(
                f"p99 latency {p99_s:.3f}s exceeds the "
                f"{args.p99_budget:g}s budget",
                file=sys.stderr,
            )
            return 1
        print(
            f"p99 latency {p99_s:.3f}s within the "
            f"{args.p99_budget:g}s budget",
            # Keep stdout pure JSON under --json (pipelines redirect it).
            file=sys.stderr if args.json else out,
        )
    return 0


def cmd_report(args, out) -> int:
    from .obs.metrics import merge_snapshots, read_snapshot
    from .obs.report import render_snapshot, render_snapshot_json

    try:
        snapshots = [read_snapshot(p) for p in args.paths]
    except (OSError, ValueError) as exc:
        print(f"cannot read snapshot: {exc}", file=sys.stderr)
        return 2
    snap = snapshots[0] if len(snapshots) == 1 else merge_snapshots(snapshots)
    render = render_snapshot_json if args.json else render_snapshot
    print(render(snap, pattern=args.filter), file=out)
    return 0


def cmd_schedule(args, out) -> int:
    from .viz import access_density_timeline

    cfg = _config(args)
    runner = Runner(cfg)
    compiled = runner.compilation(args.app)
    stats = compiled.stats()
    rows = [(k, f"{v:.1f}" if isinstance(v, float) else v)
            for k, v in stats.items()]
    print(format_table(("stat", "value"), rows,
                       title=f"schedule for {args.app}"), file=out)
    if args.timeline:
        print(file=out)
        print(access_density_timeline(compiled, width=args.width), file=out)
    return 0


def _emit_reports(command, sections, args, out) -> int:
    """Render named reports per the uniform contract and return the exit
    code.  ``sections`` is ``[(name, Report)]``; JSON output is always a
    single document keyed by section name."""
    import json as json_mod

    fmt = _resolved_format(args)
    reports = [report for _, report in sections]
    rc = _reports_exit(reports, args.strict)
    if fmt == "json":
        doc = {
            "command": command,
            "strict": args.strict,
            "sections": {name: report.as_dict()
                         for name, report in sections},
            "clean": rc == 0,
        }
        print(json_mod.dumps(doc, indent=2), file=out)
    else:
        for name, report in sections:
            print(report.render_text(title=f"{command} {name}"), file=out)
    return rc


def cmd_verify(args, out) -> int:
    from .analysis import RuntimeModel, verify_schedule

    cfg = _config(args)
    runner = Runner(cfg)
    runtime = RuntimeModel.from_session_config(cfg.session_config())
    apps = [args.app] if args.app else list(APPS)
    sections = []
    for app in apps:
        compiled = runner.compilation(app)
        report = verify_schedule(
            compiled.trace,
            compiled.book,
            runtime=runtime,
            include_lint=not args.no_lint,
        )
        sections.append((app, report))
    return _emit_reports("verify", sections, args, out)


def cmd_lint(args, out) -> int:
    from .analysis import lint_program

    cfg = _config(args)
    runner = Runner(cfg)
    apps = [args.app] if args.app else list(APPS)
    sections = []
    for app in apps:
        sections.append((app, lint_program(runner.trace(app))))
    if args.determinism:
        from .analysis import lint_determinism

        sections.append(("determinism", lint_determinism()))
    return _emit_reports("lint", sections, args, out)


def cmd_analyze(args, out) -> int:
    import json as json_mod

    from .analysis import CORPUS_POLICIES, analyze_energy, check_envelope

    cfg = _config(args)
    runner = Runner(cfg)
    apps = [args.app] if args.app else list(APPS)
    policies = [args.policy] if args.policy else list(CORPUS_POLICIES)
    schemes = {"both": (False, True), "on": (True,), "off": (False,)}
    configs = []
    registry = None
    if args.metrics:
        from .obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    for app in apps:
        trace = runner.trace(app)
        compiled = None
        for policy in policies:
            for scheme in schemes[args.scheme]:
                if scheme and compiled is None:
                    compiled = runner.compilation(app)
                analysis = analyze_energy(
                    trace, cfg, policy, scheme,
                    book=compiled.book if scheme else None,
                )
                measured = None
                if args.check:
                    measured = runner.run(
                        app, policy, scheme
                    ).energy_joules
                    analysis.report.extend(
                        check_envelope(analysis.envelope, measured)
                    )
                if registry is not None:
                    from .obs.collect import collect_envelope_metrics

                    collect_envelope_metrics(registry, analysis, measured)
                configs.append((app, policy, scheme, analysis, measured))
    if registry is not None:
        from .obs.metrics import write_snapshot

        write_snapshot(registry.snapshot(), args.metrics)
        print(f"[obs] metrics written to {args.metrics}", file=sys.stderr)

    reports = [analysis.report for _, _, _, analysis, _ in configs]
    rc = _reports_exit(reports, args.strict)
    if _resolved_format(args) == "json":
        doc = {
            "command": "analyze",
            "scale": cfg.workload_scale,
            "checked": bool(args.check),
            "strict": args.strict,
            "configs": [
                {
                    "app": app,
                    "policy": policy,
                    "scheme": scheme,
                    **analysis.as_dict(),
                    **({"measured_j": measured,
                        "contained": analysis.envelope.contains(measured)}
                       if measured is not None else {}),
                }
                for app, policy, scheme, analysis, measured in configs
            ],
            "clean": rc == 0,
        }
        print(json_mod.dumps(doc, indent=2), file=out)
        return rc

    headers = ["workload", "policy", "scheme", "E_lo (J)", "E_hi (J)",
               "rel width", "findings"]
    if args.check:
        headers[6:6] = ["measured (J)", "inside"]
    rows = []
    for app, policy, scheme, analysis, measured in configs:
        env = analysis.envelope
        row = [app, policy, "on" if scheme else "off",
               f"{env.energy_j.lo:,.1f}", f"{env.energy_j.hi:,.1f}",
               f"{env.relative_width:.3f}", str(len(analysis.report))]
        if args.check:
            row[6:6] = [f"{measured:,.1f}",
                        "yes" if env.contains(measured) else "NO"]
        rows.append(tuple(row))
    title = f"energy envelopes (scale {cfg.workload_scale})"
    print(format_table(tuple(headers), rows, title=title), file=out)
    for app, policy, scheme, analysis, _ in configs:
        if len(analysis.report):
            print(file=out)
            label = f"{app}/{policy}/scheme={'on' if scheme else 'off'}"
            print(analysis.report.render_text(title=f"analyze {label}"),
                  file=out)
    return rc


_HANDLERS = {
    "list": cmd_list,
    "run": cmd_run,
    "figure": cmd_figure,
    "resume": cmd_resume,
    "bench": cmd_bench,
    "tournament": cmd_tournament,
    "serve": cmd_serve,
    "loadtest": cmd_loadtest,
    "report": cmd_report,
    "schedule": cmd_schedule,
    "verify": cmd_verify,
    "lint": cmd_lint,
    "analyze": cmd_analyze,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
