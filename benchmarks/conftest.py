"""Shared infrastructure for the paper-claim checks.

One memoizing :class:`Runner` is shared across every check in the
session.  It is warmed once through the campaign, the same path
``repro figure`` takes: every paper figure's grid is resolved by a
:class:`~repro.exec.CampaignSupervisor` with one worker per CPU, so the
grid points simulate in parallel once.  The checks then render their
figures from the runner's memo.  Ablation variants outside the grids
still run in-process.

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

from repro.exec import CampaignSupervisor, ResultCache, all_figure_points
from repro.experiments import APPS, Runner, default_config

#: Apps used by the sensitivity sweeps (one short-idle, one streaming,
#: one long-idle) unless REPRO_FULL_SWEEPS is set.
SWEEP_APPS = ("hf", "sar", "wupwise")

#: The warm-up campaign's ``[exec]`` line, printed in the session summary.
_CAMPAIGN_SUMMARY: list[str] = []


def sweep_apps() -> tuple[str, ...]:
    if os.environ.get("REPRO_FULL_SWEEPS"):
        return APPS
    return SWEEP_APPS


@pytest.fixture(scope="session")
def runner(tmp_path_factory) -> Runner:
    cfg = default_config()
    runner = Runner(cfg)
    jobs = os.cpu_count() or 1
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or tmp_path_factory.mktemp(
        "result-cache"
    )
    cache = ResultCache(cache_dir)
    report = CampaignSupervisor(jobs=jobs, cache=cache).warm_runner(
        runner, all_figure_points(cfg)
    )
    counts = report.counts()
    _CAMPAIGN_SUMMARY.append(
        f"[exec] points={len(report.outcomes)} cache_hits={counts['cached']} "
        f"simulated={counts['ok']} jobs={jobs}"
    )
    return runner


def pytest_terminal_summary(terminalreporter) -> None:
    for line in _CAMPAIGN_SUMMARY:
        terminalreporter.write_line(line)
