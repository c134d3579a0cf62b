"""Tests for the experiment harness (config, runner, figure drivers).

Simulation-heavy tests run at a tiny workload scale; they verify the
plumbing and the qualitative direction of the headline result, not the
figures themselves (the benchmarks regenerate those).
"""

import pytest

from repro.experiments import (
    APPS,
    ExperimentConfig,
    POLICIES,
    Runner,
    default_config,
    fig12a,
    fig12c,
    make_runner,
    table2_rows,
    table3,
)

TINY = ExperimentConfig(workload_scale=0.05)


@pytest.fixture(scope="module")
def runner():
    return Runner(TINY)


class TestConfig:
    def test_table2_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n_clients == 32
        assert cfg.n_ionodes == 8
        assert cfg.stripe_size == 64 * 1024
        assert cfg.cache_bytes == 64 * 1024 * 1024
        assert cfg.delta == 20
        assert cfg.theta == 4

    def test_disk_spec_selection(self):
        cfg = ExperimentConfig()
        assert not cfg.disk_spec(multispeed=False).is_multispeed
        assert cfg.disk_spec(multispeed=True).is_multispeed

    def test_scaled_copy(self):
        cfg = ExperimentConfig()
        other = cfg.scaled(delta=40)
        assert other.delta == 40
        assert cfg.delta == 20

    def test_config_hashable_for_memoization(self):
        assert hash(ExperimentConfig()) == hash(ExperimentConfig())

    def test_to_key_covers_every_field(self):
        """Regression: the canonical key must enumerate every dataclass
        field by name, so no future knob can silently fall out of the
        memo/cache identity."""
        from dataclasses import fields

        key = ExperimentConfig().to_key()
        assert [name for name, _ in key] == [
            f.name for f in fields(ExperimentConfig)
        ]

    def test_to_key_equal_iff_configs_equal(self):
        a, b = ExperimentConfig(), ExperimentConfig()
        assert a.to_key() == b.to_key()
        assert a.scaled(delta=40).to_key() != a.to_key()
        assert a.scaled(workload_scale=0.5).to_key() != a.to_key()

    def test_to_key_is_hashable_and_order_stable(self):
        cfg = ExperimentConfig()
        assert hash(cfg.to_key()) == hash(cfg.to_key())
        assert cfg.to_key() == cfg.scaled().to_key()

    def test_default_config_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert default_config().workload_scale == 0.5

    def test_session_config_projection(self):
        sc = ExperimentConfig(buffer_capacity_blocks=99).session_config()
        assert sc.buffer_capacity_blocks == 99
        assert sc.n_ionodes == 8

    def test_retired_calendar_kernel_rejected(self):
        """The heap simulator is the only engine: every other kernel
        name, retired or invented, is refused."""
        assert ExperimentConfig().kernel == "heap"
        for kernel in ("calendar", "analytic", "splay-tree"):
            with pytest.raises(ValueError, match="unknown simulation kernel"):
                ExperimentConfig(kernel=kernel)

    @pytest.mark.parametrize(
        "changes",
        [
            {"n_clients": "8"},
            {"n_clients": [8]},
            {"n_clients": True},
            {"n_clients": 8.0},
            {"delta": 1.5},
            {"workload_scale": "0.05"},
            {"workload_scale": False},
            {"reorder": 1},
            {"fault_plan": {"seed": 7, "events": []}},
        ],
    )
    def test_wrongly_typed_field_rejected(self, changes):
        with pytest.raises(ValueError, match="config field"):
            ExperimentConfig().scaled(**changes)

    @pytest.mark.parametrize(
        "changes",
        [
            {"workload_scale": -1.0},
            {"workload_scale": 0},
            {"workload_scale": float("nan")},
            {"workload_scale": float("inf")},
            {"n_clients": 0},
            {"n_ionodes": -2},
            {"delta": -1},
            {"theta": 0},
            {"granularity": 0},
            {"stripe_size": 0},
            {"max_slack": -1},
            {"cache_bytes": -1},
            {"buffer_capacity_blocks": 0},
            {"forecast_epoch": 0.0},
            {"simple_timeout": -5.0},
            {"staggered_step": -1.0},
            {"prediction_margin": 0.0},
            {"history_utilization_bound": 0.0},
            {"credit_slack": 0.0},
            {"hybrid_divergence": 0.0},
            {"disks_per_node": 0},
            {"raid_level": 7},
            {"raid_level": 5, "disks_per_node": 2},
            {"simple_timeout": float("nan")},
            {"staggered_step": float("inf")},
        ],
    )
    def test_out_of_range_field_rejected(self, changes):
        """A scale that is not finite and positive, a platform or
        compiler value below its minimum, a policy value its policy
        refuses, or a RAID layout the node cannot build is refused
        before any workload is built."""
        with pytest.raises(ValueError, match="config field"):
            ExperimentConfig().scaled(**changes)

    def test_numeric_fields_accept_their_types(self):
        cfg = ExperimentConfig(workload_scale=1, simple_timeout=2.5, delta=7)
        assert (cfg.workload_scale, cfg.simple_timeout, cfg.delta) == (
            1, 2.5, 7,
        )


class TestRunnerCaching:
    def test_trace_cached(self, runner):
        assert runner.trace("sar") is runner.trace("sar")

    def test_compilation_cached(self, runner):
        assert runner.compilation("sar") is runner.compilation("sar")

    def test_run_cached(self, runner):
        first = runner.run("sar", "default", False)
        second = runner.run("sar", "default", False)
        assert first is second

    def test_different_policies_not_conflated(self, runner):
        a = runner.run("sar", "default", False)
        b = runner.run("sar", "simple", False)
        assert a is not b

    def test_config_override_not_conflated(self, runner):
        base = runner.run("sar", "default", False)
        other = runner.run(
            "sar", "default", False, config=TINY.scaled(n_ionodes=4)
        )
        assert other is not base
        assert len(other.idle_periods) != len(base.idle_periods) or (
            other.energy_joules != base.energy_joules
        )

    def test_unknown_policy_rejected(self, runner):
        with pytest.raises(ValueError):
            runner.run("sar", "turbo", False)

    def test_run_memo_keyed_on_canonical_key(self, runner):
        """Regression for the old `(workload, policy, scheme, cfg)` key:
        an equal-but-distinct config object must hit the same memo entry."""
        twin = ExperimentConfig(workload_scale=0.05)
        assert twin is not TINY and twin == TINY
        first = runner.run("sar", "default", False, config=TINY)
        assert runner.run("sar", "default", False, config=twin) is first


class TestRunResults:
    def test_baseline_fields(self, runner):
        base = runner.baseline("sar")
        assert base.execution_time > 0
        assert base.energy_joules > 0
        assert base.idle_cdf.count > 0
        assert base.energy_breakdown["total"] == pytest.approx(
            base.energy_joules
        )

    def test_scheme_run_prefetches(self, runner):
        run = runner.run("sar", "default", True)
        assert run.prefetches > 0
        assert run.buffer_hits == run.prefetches
        assert run.accesses > 0

    def test_normalized_energy_of_default_is_one(self, runner):
        assert runner.normalized_energy("sar", "default", False) == 1.0

    def test_degradation_of_default_is_zero(self, runner):
        assert runner.degradation("sar", "default", False) == 0.0

    def test_headline_direction_multispeed(self, runner):
        """The core claim at tiny scale: the history policy saves energy,
        and the scheme does not make it worse."""
        without = runner.normalized_energy("sar", "history", False)
        with_scheme = runner.normalized_energy("sar", "history", True)
        assert without < 1.0
        assert with_scheme <= without + 0.05


class TestFigureDrivers:
    def test_table2_text(self):
        result = table2_rows(TINY)
        assert "Number of I/O nodes" in result.text
        assert ("delta", 20) in result.data

    def test_table3_covers_all_apps(self, runner):
        result = table3(runner)
        assert set(result.data) == set(APPS)
        for app in APPS:
            assert result.data[app]["exec_minutes"] > 0

    def test_fig12a_structure(self, runner):
        result = fig12a(runner)
        assert set(result.data) == set(APPS)
        for app in APPS:
            fractions = list(result.data[app].values())
            assert fractions == sorted(fractions)

    def test_fig12c_normalized_energies(self, runner):
        result = fig12c(runner)
        for app in APPS:
            for policy in POLICIES:
                assert 0.0 < result.data[app][policy] <= 1.6

    def test_make_runner_uses_default_config(self):
        assert make_runner().config.n_clients == 32
