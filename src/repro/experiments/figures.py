"""Per-figure/table experiment drivers.

Each function regenerates the rows/series of one table or figure from the
paper's evaluation (§V) and returns a :class:`FigureResult` whose ``text``
is the printable table and whose ``data`` is the raw structure tests
assert on.  All functions share one memoizing :class:`Runner`, so a full
sweep reuses every run it can.  :data:`FIGURES` names them; the run grid
of each is whatever it reads from the runner
(:func:`repro.exec.grid.figure_points`).

Paper ↔ function map:

==========  =====================================================
Table II    :func:`table2_rows`
Table III   :func:`table3`
Fig 12(a)   :func:`fig12a` — idle CDF without the scheme
Fig 12(b)   :func:`fig12b` — idle CDF with the scheme
Fig 12(c)   :func:`fig12c` — normalized energy without the scheme
Fig 12(d)   :func:`fig12d` — normalized energy with the scheme
Fig 13(a)   :func:`fig13a` — perf degradation without the scheme
Fig 13(b)   :func:`fig13b` — perf degradation with the scheme
Fig 13(c)   :func:`fig13c` — benefit vs number of I/O nodes
Fig 13(d)   :func:`fig13d` — benefit vs δ
Fig 14(a)   :func:`fig14a` — benefit vs θ
Fig 14(b)   :func:`fig14b` — performance improvement vs θ
§V-D text   :func:`cache_sensitivity`
==========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..metrics.idle import PAPER_BUCKETS_MS
from ..metrics.report import format_percent, format_table
from .config import ExperimentConfig, default_config
from .runner import POLICIES, Runner

__all__ = [
    "FigureResult",
    "FIGURES",
    "APPS",
    "table2_rows",
    "table3",
    "fig12a",
    "fig12b",
    "fig12c",
    "fig12d",
    "fig13a",
    "fig13b",
    "fig13c",
    "fig13d",
    "fig14a",
    "fig14b",
    "cache_sensitivity",
]

#: The six applications, paper order (Table III).
APPS = ("hf", "sar", "astro", "apsi", "madbench2", "wupwise")

IONODE_SWEEP = (2, 4, 8, 16, 32)
DELTA_SWEEP = (5, 10, 20, 40, 80)
THETA_SWEEP = (2, 4, 6, 8)
CACHE_SWEEP_MB = (32, 64, 256)


@dataclass
class FigureResult:
    """One regenerated table/figure: raw data + printable text."""

    figure_id: str
    data: Any
    text: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def make_runner(config: Optional[ExperimentConfig] = None) -> Runner:
    """A fresh memoizing runner over the (Table II) default config."""
    return Runner(config or default_config())


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table2_rows(config: Optional[ExperimentConfig] = None) -> FigureResult:
    """Table II: the experimental configuration actually in force."""
    cfg = config or default_config()
    spec = cfg.disk_spec(multispeed=True)
    rows = [
        ("Number of Client (Compute) Nodes", cfg.n_clients),
        ("Number of I/O nodes", cfg.n_ionodes),
        ("Stripe Size", f"{cfg.stripe_size // 1024}KB"),
        ("Storage Cache Capacity",
         f"{cfg.cache_bytes // (1024 * 1024)}MB (per I/O node)"),
        ("Individual Disk Capacity", f"{spec.capacity_bytes // 2**30}GB"),
        ("Maximum Disk Rotation Speed", f"{spec.max_rpm} RPM"),
        ("Idle Power", f"{spec.idle_power}W (at {spec.max_rpm} RPM)"),
        ("Active (R/W) Power", f"{spec.active_power}W (at {spec.max_rpm} RPM)"),
        ("Seek Power", f"{spec.seek_power}W (at {spec.max_rpm} RPM)"),
        ("Standby Power", f"{spec.standby_power}W"),
        ("Spin-up Power", f"{spec.spin_up_power}W"),
        ("Spin-up Time", f"{spec.spin_up_time:.0f}secs"),
        ("Spin-down Time", f"{spec.spin_down_time:.0f}secs"),
        ("Disk-Arm Scheduling", "Elevator"),
        ("Minimum Disk Rotation Speed", f"{spec.min_rpm} RPM"),
        ("RPM Step-Size", f"{spec.rpm_step}"),
        ("delta", cfg.delta),
        ("theta", cfg.theta),
    ]
    text = format_table(("Parameter", "Value"), rows, title="Table II")
    return FigureResult("table2", rows, text)


def table3(runner: Runner) -> FigureResult:
    """Table III: per-app execution time and disk energy, Default Scheme."""
    rows = []
    data = {}
    for app in APPS:
        base = runner.baseline(app)
        minutes = base.execution_time / 60.0
        rows.append((app, f"{minutes:.1f}", f"{base.energy_joules:,.1f}"))
        data[app] = {
            "exec_minutes": minutes,
            "energy_joules": base.energy_joules,
        }
    text = format_table(
        ("Name", "Exec Time (minutes)", "Disk Energy (Joule)"),
        rows,
        title="Table III (Default Scheme)",
    )
    return FigureResult("table3", data, text)


# ----------------------------------------------------------------------
# Figure 12 — idle CDFs and normalized energy
# ----------------------------------------------------------------------
def _idle_cdf_figure(runner: Runner, scheme: bool, figure_id: str) -> FigureResult:
    data = {}
    rows = []
    for app in APPS:
        run = runner.run(app, "default", scheme)
        cdf = run.idle_cdf
        data[app] = dict(zip(cdf.buckets_ms, cdf.cumulative))
        rows.append(
            (app,)
            + tuple(format_percent(f, 0) for f in cdf.cumulative)
        )
    headers = ("app",) + tuple(f"≤{b}ms" for b in PAPER_BUCKETS_MS)
    title = f"Figure 12({'b' if scheme else 'a'}): CDF of idle periods "
    title += "with" if scheme else "without"
    title += " the scheme"
    return FigureResult(figure_id, data, format_table(headers, rows, title=title))


def fig12a(runner: Runner) -> FigureResult:
    """CDF of disk idle-period lengths, no scheme (Default)."""
    return _idle_cdf_figure(runner, scheme=False, figure_id="fig12a")


def fig12b(runner: Runner) -> FigureResult:
    """CDF of disk idle-period lengths with the compiler scheme."""
    return _idle_cdf_figure(runner, scheme=True, figure_id="fig12b")


def _normalized_energy_figure(
    runner: Runner, scheme: bool, figure_id: str
) -> FigureResult:
    data: dict[str, dict[str, float]] = {}
    rows = []
    for app in APPS:
        data[app] = {}
        row = [app]
        for policy in POLICIES:
            norm = runner.normalized_energy(app, policy, scheme)
            data[app][policy] = norm
            row.append(format_percent(norm, 1))
        rows.append(tuple(row))
    avg_row = ["average"]
    for policy in POLICIES:
        avg = sum(data[a][policy] for a in APPS) / len(APPS)
        avg_row.append(format_percent(avg, 1))
    rows.append(tuple(avg_row))
    title = (
        f"Figure 12({'d' if scheme else 'c'}): normalized energy "
        f"({'with' if scheme else 'without'} the scheme)"
    )
    return FigureResult(
        figure_id, data, format_table(("app",) + POLICIES, rows, title=title)
    )


def fig12c(runner: Runner) -> FigureResult:
    """Normalized energy of the four policies, no scheme."""
    return _normalized_energy_figure(runner, scheme=False, figure_id="fig12c")


def fig12d(runner: Runner) -> FigureResult:
    """Normalized energy of the four policies with the scheme."""
    return _normalized_energy_figure(runner, scheme=True, figure_id="fig12d")


# ----------------------------------------------------------------------
# Figure 13 — performance and first sensitivity sweeps
# ----------------------------------------------------------------------
def _degradation_figure(runner: Runner, scheme: bool, figure_id: str) -> FigureResult:
    data: dict[str, dict[str, float]] = {}
    rows = []
    for app in APPS:
        data[app] = {}
        row = [app]
        for policy in POLICIES:
            deg = runner.degradation(app, policy, scheme)
            data[app][policy] = deg
            row.append(format_percent(deg, 1))
        rows.append(tuple(row))
    avg_row = ["average"]
    for policy in POLICIES:
        avg = sum(data[a][policy] for a in APPS) / len(APPS)
        avg_row.append(format_percent(avg, 1))
    rows.append(tuple(avg_row))
    title = (
        f"Figure 13({'b' if scheme else 'a'}): performance degradation "
        f"({'with' if scheme else 'without'} the scheme)"
    )
    return FigureResult(
        figure_id, data, format_table(("app",) + POLICIES, rows, title=title)
    )


def fig13a(runner: Runner) -> FigureResult:
    """Performance degradation versus Default, no scheme."""
    return _degradation_figure(runner, scheme=False, figure_id="fig13a")


def fig13b(runner: Runner) -> FigureResult:
    """Performance degradation versus Default, with the scheme."""
    return _degradation_figure(runner, scheme=True, figure_id="fig13b")


def scheme_benefit(
    runner: Runner, app: str, config: ExperimentConfig, policy: str = "history"
) -> float:
    """The sensitivity metric of Figs 13(c)/(d) and 14(a): the *additional*
    energy reduction the scheme brings over the bare policy,
    1 − E(policy, scheme) / E(policy)."""
    without = runner.run(app, policy, False, config=config)
    with_scheme = runner.run(app, policy, True, config=config)
    if without.energy_joules == 0:
        return 0.0
    return 1.0 - with_scheme.energy_joules / without.energy_joules


def _sweep_figure(
    runner: Runner,
    figure_id: str,
    title: str,
    param_name: str,
    values: Sequence,
    config_of,
    apps: Sequence[str] = APPS,
) -> FigureResult:
    data: dict[Any, float] = {}
    rows = []
    for value in values:
        cfg = config_of(value)
        benefits = [scheme_benefit(runner, app, cfg) for app in apps]
        avg = sum(benefits) / len(benefits)
        data[value] = avg
        rows.append((value, format_percent(avg, 1)))
    text = format_table((param_name, "extra energy reduction"), rows, title=title)
    return FigureResult(figure_id, data, text)


def fig13c(
    runner: Runner,
    values: Sequence[int] = IONODE_SWEEP,
    apps: Sequence[str] = APPS,
) -> FigureResult:
    """Energy reduction of the scheme over history-based, vs #I/O nodes."""
    return _sweep_figure(
        runner,
        "fig13c",
        "Figure 13(c): scheme benefit over history-based vs #I/O nodes",
        "io_nodes",
        values,
        lambda n: runner.config.scaled(n_ionodes=n),
        apps,
    )


def fig13d(
    runner: Runner,
    values: Sequence[int] = DELTA_SWEEP,
    apps: Sequence[str] = APPS,
) -> FigureResult:
    """Energy reduction of the scheme over history-based, vs δ."""
    return _sweep_figure(
        runner,
        "fig13d",
        "Figure 13(d): scheme benefit over history-based vs delta",
        "delta",
        values,
        lambda d: runner.config.scaled(delta=d),
        apps,
    )


# ----------------------------------------------------------------------
# Figure 14 — θ sweeps
# ----------------------------------------------------------------------
def fig14a(
    runner: Runner,
    values: Sequence[int] = THETA_SWEEP,
    apps: Sequence[str] = APPS,
) -> FigureResult:
    """Energy reduction of the scheme over history-based, vs θ."""
    return _sweep_figure(
        runner,
        "fig14a",
        "Figure 14(a): scheme benefit over history-based vs theta",
        "theta",
        values,
        lambda t: runner.config.scaled(theta=t),
        apps,
    )


def fig14b(
    runner: Runner,
    values: Sequence[int] = THETA_SWEEP,
    apps: Sequence[str] = APPS,
) -> FigureResult:
    """Performance improvement the scheme brings (vs the bare history
    policy) at each θ — the θ constraint trades energy for exactly this."""
    data: dict[int, float] = {}
    rows = []
    for theta in values:
        cfg = runner.config.scaled(theta=theta)
        improvements = []
        for app in apps:
            without = runner.run(app, "history", False, config=cfg)
            with_scheme = runner.run(app, "history", True, config=cfg)
            improvements.append(
                without.execution_time / with_scheme.execution_time - 1.0
            )
        avg = sum(improvements) / len(improvements)
        data[theta] = avg
        rows.append((theta, format_percent(avg, 1)))
    text = format_table(
        ("theta", "performance improvement"),
        rows,
        title="Figure 14(b): performance improvement of the scheme vs theta",
    )
    return FigureResult("fig14b", data, text)


# ----------------------------------------------------------------------
# §V-D cache-capacity sensitivity (reported in text)
# ----------------------------------------------------------------------
def cache_sensitivity(
    runner: Runner,
    sizes_mb: Sequence[int] = CACHE_SWEEP_MB,
    apps: Sequence[str] = APPS,
) -> FigureResult:
    """Scheme benefit over history-based at different storage-cache sizes.

    The paper reports the benefit growing when the cache shrinks (32 MB)
    and shrinking when it grows (256 MB) — a bigger cache absorbs disk
    activity by itself, leaving less for scheduling to win.
    """
    data: dict[int, float] = {}
    rows = []
    for mb in sizes_mb:
        cfg = runner.config.scaled(cache_bytes=mb * 1024 * 1024)
        benefits = [scheme_benefit(runner, app, cfg) for app in apps]
        avg = sum(benefits) / len(benefits)
        data[mb] = avg
        rows.append((f"{mb}MB", format_percent(avg, 1)))
    text = format_table(
        ("cache", "extra energy reduction"),
        rows,
        title="§V-D: scheme benefit vs storage-cache capacity",
    )
    return FigureResult("cache_sensitivity", data, text)


#: Figure name → driver, paper order.  Every driver takes the runner
#: first; the sweeps also take their ``values``/``sizes_mb`` and ``apps``.
FIGURES = {
    "table2": lambda runner: table2_rows(runner.config),
    "table3": table3,
    "fig12a": fig12a,
    "fig12b": fig12b,
    "fig12c": fig12c,
    "fig12d": fig12d,
    "fig13a": fig13a,
    "fig13b": fig13b,
    "fig13c": fig13c,
    "fig13d": fig13d,
    "fig14a": fig14a,
    "fig14b": fig14b,
    "cache": cache_sensitivity,
}
