"""Tests for the ``repro bench`` record.

The CLI path (flag validation, the overhead gate) is exercised in
``test_cli_and_viz.py`` and ``test_obs_integration.py``; here we pin the
record plumbing: how a record is named on disk, and the argument check
:func:`run_bench` keeps for library callers.
"""

import json

import pytest

from repro.exec import run_bench, write_bench_record
from repro.experiments import ExperimentConfig

SMALL = ExperimentConfig(n_clients=8, n_ionodes=4, workload_scale=0.05)


def fake_record(**overrides):
    record = {"kind": "repro-bench", "trace_overhead": 0.01}
    record.update(overrides)
    return record


class TestWriteBenchRecord:
    def test_round_trips_and_names_by_timestamp(self, tmp_path):
        path = write_bench_record(
            fake_record(created="2026-01-01T00:00:00"), tmp_path
        )
        assert path.name.startswith("BENCH_")
        assert json.loads(path.read_text())["kind"] == "repro-bench"

    def test_utc_created_stamp_names_a_z_file(self, tmp_path):
        """Current records carry Z-suffixed UTC stamps end to end."""
        path = write_bench_record(
            fake_record(created="2026-08-08T01:02:03Z"), tmp_path
        )
        assert path.name == "BENCH_20260808T010203Z.json"


class TestRunBench:
    def test_library_callers_get_a_value_error_for_zero_repeats(
        self, tmp_path
    ):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            run_bench(
                config=SMALL, figures=("table3",),
                trace_path=tmp_path / "t.jsonl", repeats=0,
            )
