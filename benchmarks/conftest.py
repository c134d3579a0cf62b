"""Shared infrastructure for the paper-claim checks.

One memoizing :class:`Runner` is shared across every check in the
session, behind the ``render(name, **kwargs)`` fixture.  A render first
warms the runner through the campaign, the same path ``repro figure``
takes: a :class:`~repro.exec.CampaignSupervisor` with one worker per CPU
resolves exactly the points the figure reads with those arguments
(:func:`~repro.exec.figure_points`), skipping any an earlier check
already warmed, so each point simulates in parallel once.  The figure
then renders from the runner's memo.  Ablation variants outside the
figures still run in-process.

The campaign's result cache is a fresh directory for the session unless
``REPRO_CACHE_DIR`` names one.  Cache keys cover the configuration, not
the code, so a persistent cache would let the checks pass against
results an older simulator produced; name one only to re-run unchanged
code, where a second session over it simulates nothing (``simulated=0``).

The workload scale comes from ``REPRO_SCALE`` (default 0.25 — minutes for
the full set; use 1.0 to approximate the paper's full run sizes).
Sensitivity sweeps (Figs 13(c)/(d), 14(a)/(b), cache) render over a
reduced three-app subset by default to bound wall-clock time; set
``REPRO_FULL_SWEEPS=1`` to sweep all six applications as the paper did.
"""

from __future__ import annotations

import os

import pytest

from repro.exec import CampaignSupervisor, ResultCache, figure_points
from repro.experiments import APPS, Runner, default_config
from repro.experiments.figures import FIGURES, FigureResult

#: Apps used by the sensitivity sweeps (one short-idle, one streaming,
#: one long-idle) unless REPRO_FULL_SWEEPS is set.
SWEEP_APPS = ("hf", "sar", "wupwise")

#: The warm-up campaigns' ``[exec]`` counts, summed over the session.
_WARMED = {"points": 0, "cached": 0, "ok": 0}


def sweep_apps() -> tuple[str, ...]:
    if os.environ.get("REPRO_FULL_SWEEPS"):
        return APPS
    return SWEEP_APPS


@pytest.fixture(scope="session")
def render(tmp_path_factory):
    """``render(name, **kwargs)``: warm figure ``name``'s points, then
    render it from the shared runner with the same arguments."""
    cfg = default_config()
    runner = Runner(cfg)
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or tmp_path_factory.mktemp(
        "result-cache"
    )
    campaign = CampaignSupervisor(
        jobs=os.cpu_count() or 1, cache=ResultCache(cache_dir)
    )
    warmed: set = set()

    def render(name: str, **kwargs) -> FigureResult:
        fresh = [
            p for p in figure_points(name, cfg, **kwargs) if p not in warmed
        ]
        if fresh:
            warmed.update(fresh)
            report = campaign.warm_runner(runner, fresh)
            counts = report.counts()
            _WARMED["points"] += len(report.outcomes)
            _WARMED["cached"] += counts["cached"]
            _WARMED["ok"] += counts["ok"]
        return FIGURES[name](runner, **kwargs)

    return render


def pytest_terminal_summary(terminalreporter) -> None:
    if _WARMED["points"]:
        terminalreporter.write_line(
            f"[exec] points={_WARMED['points']} "
            f"cache_hits={_WARMED['cached']} simulated={_WARMED['ok']} "
            f"jobs={os.cpu_count() or 1}"
        )
