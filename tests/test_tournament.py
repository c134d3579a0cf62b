"""The online energy-policy tournament: schema, determinism, arithmetic.

The tournament document is the PR's product: a leaderboard CI pins.
These tests check the three properties that make it pinnable — the
schema is stable, the body replays byte-identically (in-process, run
over run, and serial vs. a 4-worker pool through the campaign
machinery), and the win-matrix / leaderboard arithmetic is internally
consistent with the cells.
"""

import io
import json
import re

import pytest

from repro.cli import main
from repro.exec import CampaignFailed, CampaignSupervisor, supervise
from repro.exec.serialize import canonical_dumps
from repro.experiments import ExperimentConfig
from repro.experiments.runner import RunResult
from repro.experiments.tournament import (
    DEFAULT_ENTRANTS,
    TOURNAMENT_SCHEMA,
    Entrant,
    run_tournament,
    scenario_config,
    tournament_points,
    write_tournament_record,
)

SMALL = ExperimentConfig(n_clients=8, n_ionodes=4, workload_scale=0.05)

#: Reduced grid shared across the module: small enough to be quick,
#: wide enough that the win matrix and both fault scenarios are real.
WORKLOADS = ("sar", "hf")
ENTRANTS = (
    Entrant("compiler-simple", "simple", scheme=True),
    Entrant("forecast", "forecast", scheme=False),
    Entrant("hybrid", "hybrid", scheme=True),
)
GRID_SCENARIOS = ("clean", "straggler")


@pytest.fixture(scope="module")
def doc():
    return run_tournament(
        SMALL, workloads=WORKLOADS, entrants=ENTRANTS,
        scenarios=GRID_SCENARIOS,
    )


class TestEntrant:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Entrant("", "simple", scheme=True)

    def test_reorder_without_scheme_rejected(self):
        with pytest.raises(ValueError):
            Entrant("x", "forecast", scheme=False, reorder=True)

    def test_default_field_is_valid_and_distinct(self):
        names = [e.name for e in DEFAULT_ENTRANTS]
        assert len(set(names)) == len(names)
        assert any(e.reorder for e in DEFAULT_ENTRANTS)

    def test_as_dict_round_trips_fields(self):
        e = Entrant("h", "hybrid", scheme=True, reorder=True)
        assert e.as_dict() == {
            "name": "h", "policy": "hybrid", "scheme": True, "reorder": True,
        }


class TestScenarios:
    def test_clean_is_base(self):
        assert scenario_config(SMALL, "clean") is SMALL

    def test_straggler_attaches_plan(self):
        cfg = scenario_config(SMALL, "straggler")
        assert cfg.fault_plan is not None
        assert cfg.fault_plan.events[0].kind == "node.straggle"

    def test_degraded_is_raid5_with_dead_member(self):
        cfg = scenario_config(SMALL, "degraded")
        assert cfg.raid_level == 5
        assert cfg.disks_per_node == 3
        assert cfg.fault_plan.events[0].kind == "disk.fail"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            scenario_config(SMALL, "chaos")


class TestPoints:
    def test_baselines_present_per_scenario_workload(self):
        points = tournament_points(
            SMALL, WORKLOADS, ENTRANTS, GRID_SCENARIOS
        )
        defaults = [p for p in points if p.policy == "default"]
        assert len(defaults) == len(WORKLOADS) * len(GRID_SCENARIOS)

    def test_points_deduplicated(self):
        # Two entrants sharing (policy, scheme, config) collapse to one
        # run point — the grid pays for distinct simulations only.
        twins = (
            Entrant("a", "forecast", scheme=False),
            Entrant("b", "forecast", scheme=False),
        )
        points = tournament_points(SMALL, ("sar",), twins, ("clean",))
        assert len(points) == 2  # baseline + the shared forecast point

    def test_reorder_entrant_gets_distinct_config(self):
        pair = (
            Entrant("hybrid", "hybrid", scheme=True),
            Entrant("hybrid-reorder", "hybrid", scheme=True, reorder=True),
        )
        points = tournament_points(SMALL, ("sar",), pair, ("clean",))
        assert len(points) == 3  # baseline + hybrid + hybrid-with-reorder
        hybrids = [p for p in points if p.policy == "hybrid"]
        assert len(hybrids) == 2
        # reorder=True joins the config key, so the two hybrid cells are
        # distinct grid points (distinct cache digests), not aliases.
        assert hybrids[0].config.to_key() != hybrids[1].config.to_key()

    def test_duplicate_entrant_names_rejected(self):
        with pytest.raises(ValueError):
            run_tournament(
                SMALL, workloads=("sar",), scenarios=("clean",),
                entrants=(
                    Entrant("same", "simple", scheme=True),
                    Entrant("same", "forecast", scheme=False),
                ),
            )


class TestDocument:
    def test_schema_stable_keys(self, doc):
        assert set(doc) == {
            "kind", "schema", "scale", "workloads", "scenarios", "entrants",
            "cells", "win_matrix", "leaderboard", "all_contained",
        }
        assert doc["kind"] == "tournament"
        assert doc["schema"] == TOURNAMENT_SCHEMA
        cell_keys = {
            "scenario", "workload", "entrant", "policy", "scheme", "reorder",
            "energy_j", "execution_s", "normalized_energy", "slowdown",
            "envelope_lo_j", "envelope_hi_j", "contained",
        }
        for cell in doc["cells"]:
            assert set(cell) == cell_keys

    def test_grid_complete(self, doc):
        assert len(doc["cells"]) == (
            len(WORKLOADS) * len(GRID_SCENARIOS) * len(ENTRANTS)
        )
        seen = {(c["scenario"], c["workload"], c["entrant"])
                for c in doc["cells"]}
        assert len(seen) == len(doc["cells"])

    def test_all_cells_contained(self, doc):
        """The acceptance gate: every measured energy sits inside the
        analyzer's certified envelope."""
        for cell in doc["cells"]:
            assert cell["envelope_lo_j"] <= cell["energy_j"] \
                <= cell["envelope_hi_j"], cell["entrant"]
            assert cell["contained"]
        assert doc["all_contained"]

    def test_win_matrix_consistent_with_cells(self, doc):
        names = [e.name for e in ENTRANTS]
        n_cells = len(WORKLOADS) * len(GRID_SCENARIOS)
        energy = {}
        for cell in doc["cells"]:
            energy[(cell["scenario"], cell["workload"], cell["entrant"])] = (
                cell["energy_j"]
            )
        for a in names:
            for b in names:
                if a == b:
                    assert b not in doc["win_matrix"][a]
                    continue
                expect = sum(
                    1
                    for s in GRID_SCENARIOS
                    for w in WORKLOADS
                    if energy[(s, w, a)] < energy[(s, w, b)]
                )
                assert doc["win_matrix"][a][b] == expect, (a, b)
                # Strict wins: a-beats-b plus b-beats-a never exceeds the
                # cell count (ties belong to neither).
                assert (
                    doc["win_matrix"][a][b] + doc["win_matrix"][b][a]
                    <= n_cells
                )

    def test_leaderboard_consistent_with_cells(self, doc):
        rows = {row["entrant"]: row for row in doc["leaderboard"]}
        assert set(rows) == {e.name for e in ENTRANTS}
        for name, row in rows.items():
            own = [c for c in doc["cells"] if c["entrant"] == name]
            mean = sum(c["normalized_energy"] for c in own) / len(own)
            assert row["mean_normalized_energy"] == pytest.approx(mean)
            assert row["wins"] == sum(doc["win_matrix"][name].values())
            assert row["max_wins"] == (
                len(WORKLOADS) * len(GRID_SCENARIOS) * (len(ENTRANTS) - 1)
            )
        ranked = [row["mean_normalized_energy"] for row in doc["leaderboard"]]
        assert ranked == sorted(ranked)

    def test_body_carries_no_timestamps(self, doc):
        text = canonical_dumps(doc)
        assert "created" not in text
        assert not re.search(r"\d{4}-\d{2}-\d{2}T", text)


class TestDeterminism:
    def test_rerun_byte_identical(self, doc):
        again = run_tournament(
            SMALL, workloads=WORKLOADS, entrants=ENTRANTS,
            scenarios=GRID_SCENARIOS,
        )
        assert canonical_dumps(again) == canonical_dumps(doc)

    def test_supervised_jobs4_matches_in_process(self, doc, tmp_path):
        supervisor = CampaignSupervisor(jobs=4)
        pooled = run_tournament(
            SMALL, workloads=WORKLOADS, entrants=ENTRANTS,
            scenarios=GRID_SCENARIOS, supervisor=supervisor,
        )
        assert canonical_dumps(pooled) == canonical_dumps(doc)


def _fail_forecast(runner, point, metrics=False, tracer=None):
    """Campaign point-body fake: the forecast cell fails, the rest
    succeed."""
    if point.policy == "forecast":
        raise ValueError("synthetic point failure")
    return RunResult(
        workload=point.workload, policy=point.policy, scheme=point.scheme,
        execution_time=1.0, energy_joules=1.0, idle_cdf=None,
        idle_periods=[], energy_breakdown={}, buffer_hits=0, prefetches=0,
        accesses=0,
    ), None


class TestIncompleteGrid:
    """A --keep-going campaign returns its failures instead of raising;
    the leaderboard needs every cell, so the tournament fails rather than
    simulating the missing cells outside the campaign."""

    def test_keep_going_failure_raises(self):
        campaign = CampaignSupervisor(
            retries=0, keep_going=True, worker_fn=_fail_forecast
        )
        with pytest.raises(CampaignFailed):
            run_tournament(
                SMALL, workloads=("sar",), scenarios=("clean",),
                entrants=(Entrant("forecast", "forecast", scheme=False),),
                supervisor=campaign,
            )

    def test_cli_keep_going_failure_exits_1(self, monkeypatch, capsys):
        real_execute_point = supervise.execute_point

        def execute_point(runner, point, *args, **kwargs):
            if point.policy == "forecast":
                raise ValueError("synthetic point failure")
            return real_execute_point(runner, point, *args, **kwargs)

        monkeypatch.setattr(supervise, "execute_point", execute_point)
        code = main([
            "tournament", "--scale", "0.05", "--workloads", "sar",
            "--entrants", "forecast", "--scenarios", "clean",
            "--no-cache", "--no-record", "--keep-going", "--retries", "0",
        ], out=io.StringIO())
        assert code == 1
        err = capsys.readouterr().err
        assert "campaign failed" in err
        assert "Traceback" not in err


class TestRecord:
    def test_filename_shape_and_round_trip(self, doc, tmp_path):
        path = write_tournament_record(doc, tmp_path)
        assert re.fullmatch(r"TOURNAMENT_\d{8}T\d{6}Z\.json", path.name)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert canonical_dumps(loaded) == canonical_dumps(doc)


class TestCli:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_tournament_renders_leaderboard_and_matrix(self, tmp_path):
        code, text = self.run_cli(
            "tournament", "--scale", "0.05",
            "--workloads", "sar",
            "--entrants", "forecast,hybrid",
            "--scenarios", "clean",
            "--no-cache", "--output-dir", str(tmp_path),
        )
        assert code == 0
        assert "forecast" in text and "hybrid" in text
        assert "beats" in text or "wins" in text
        records = list(tmp_path.glob("TOURNAMENT_*.json"))
        assert len(records) == 1

    def test_tournament_json_mode(self, tmp_path):
        code, text = self.run_cli(
            "tournament", "--scale", "0.05",
            "--workloads", "sar",
            "--entrants", "forecast",
            "--scenarios", "clean",
            "--no-cache", "--no-record", "--json",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["kind"] == "tournament"
        assert doc["all_contained"] is True
        assert not list(tmp_path.glob("TOURNAMENT_*.json"))

    def test_unknown_entrant_rejected(self, tmp_path, capsys):
        code, _ = self.run_cli(
            "tournament", "--entrants", "nonesuch",
            "--output-dir", str(tmp_path),
        )
        assert code == 2
        assert "nonesuch" in capsys.readouterr().err
