"""Tests for grid enumeration and the executor's cache resolution, with
points run by the campaign supervisor.

The headline guarantees: parallel execution is *bit-identical* to serial,
a warm cache performs zero simulations, and a verify failure in a worker
surfaces as a clear top-level error instead of hanging the pool.
"""

import pytest

from repro.exec import (
    CampaignSupervisor,
    ExperimentExecutor,
    ResultCache,
    RunPoint,
    VerifyFailure,
    all_figure_points,
    execute_point,
    figure_points,
)
from repro.exec.grid import GRID_FIGURES
from repro.experiments import APPS, ExperimentConfig, Runner, fig12c

TINY = ExperimentConfig(workload_scale=0.05)


def tiny_points(apps=("sar", "madbench2"), scheme=False):
    return [RunPoint(app, "simple", scheme, TINY) for app in apps]


def run_points(executor, points):
    """Resolve ``points`` through ``executor`` under the supervisor."""
    return CampaignSupervisor(executor).run_points(points).results


class TestGrid:
    def test_every_figure_enumerates(self):
        for name in GRID_FIGURES:
            points = figure_points(name, TINY)
            assert points, name
            assert all(isinstance(p, RunPoint) for p in points)

    def test_table2_needs_no_runs(self):
        assert figure_points("table2", TINY) == []

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            figure_points("fig99", TINY)

    def test_union_deduplicates(self):
        union = all_figure_points(TINY, names=("fig12c", "fig13a"))
        # fig13a consumes exactly fig12c's grid; the union adds nothing.
        assert len(union) == len(figure_points("fig12c", TINY))
        assert len(set(union)) == len(union)

    def test_sweep_points_carry_swept_config(self):
        deltas = {p.config.delta for p in figure_points("fig13d", TINY)}
        assert len(deltas) > 1


class TestEquivalence:
    @pytest.mark.parametrize("apps", [("sar",), ("madbench2",)])
    def test_parallel_bit_identical_to_serial(self, apps):
        """Same workload through jobs=1 and jobs=2 must agree exactly."""
        points = tiny_points(apps=apps)
        serial = run_points(ExperimentExecutor(jobs=1), points)
        # Force the pool even for few points by adding a second app when
        # needed; compare only the points under test.
        pool_points = points + tiny_points(apps=("hf",))
        parallel = run_points(ExperimentExecutor(jobs=2), pool_points)
        for point in points:
            assert parallel[point] == serial[point]

    def test_executor_matches_direct_runner(self):
        point = RunPoint("sar", "history", True, TINY)
        via_executor = run_points(ExperimentExecutor(jobs=1), [point])[point]
        direct = Runner(TINY).run("sar", "history", True)
        assert via_executor == direct

    def test_duplicates_resolved_once(self):
        point = RunPoint("sar", "simple", False, TINY)
        executor = ExperimentExecutor(jobs=1)
        results = run_points(executor, [point, point, point])
        assert executor.stats.points == 1
        assert executor.stats.simulated == 1
        assert len(results) == 1


class TestCacheIntegration:
    def test_warm_cache_performs_zero_simulations(self, tmp_path):
        points = tiny_points() + tiny_points(scheme=True)
        cold = ExperimentExecutor(jobs=1, cache=ResultCache(tmp_path))
        cold_results = run_points(cold, points)
        assert cold.stats.simulated == len(points)
        assert cold.stats.cache_hits == 0

        warm = ExperimentExecutor(jobs=2, cache=ResultCache(tmp_path))
        warm_results = run_points(warm, points)
        assert warm.stats.simulated == 0
        assert warm.stats.cache_hits == len(points)
        for point in points:
            assert warm_results[point] == cold_results[point]

    def test_full_figure_replay_is_pure_cache(self, tmp_path):
        """A repeated figure invocation with a warm cache simulates
        nothing and reproduces the figure exactly (acceptance criterion).
        """
        cfg = TINY
        points = figure_points("fig12c", cfg)

        first_exec = ExperimentExecutor(jobs=1, cache=ResultCache(tmp_path))
        first_runner = Runner(cfg, cache=None)
        CampaignSupervisor(first_exec).warm_runner(first_runner, points)
        first = fig12c(first_runner)

        replay_exec = ExperimentExecutor(jobs=1, cache=ResultCache(tmp_path))
        replay_runner = Runner(cfg, cache=None)
        CampaignSupervisor(replay_exec).warm_runner(replay_runner, points)
        second = fig12c(replay_runner)

        assert replay_exec.stats.simulated == 0
        assert replay_exec.stats.cache_hits == len(points)
        assert replay_runner.simulations == 0
        assert second.data == first.data
        assert second.text == first.text


class TestVerifyGating:
    BAD = ExperimentConfig(workload_scale=0.05, buffer_capacity_blocks=1)

    def test_execute_point_raises_on_error_diagnostics(self):
        # madbench2 at a 1-block buffer yields CAP001 errors.
        point = RunPoint("madbench2", "history", True, self.BAD)
        with pytest.raises(VerifyFailure) as exc:
            execute_point(Runner(self.BAD), point, verify=True)
        assert "madbench2" in str(exc.value)
        assert "CAP001" in str(exc.value)

    def test_verify_failure_surfaces_from_worker_pool(self):
        """A failing point among good ones must raise promptly at the
        top level — not hang the pool or be silently dropped."""
        points = [
            RunPoint("madbench2", "history", True, self.BAD),
            RunPoint("sar", "history", False, self.BAD),
        ]
        executor = ExperimentExecutor(jobs=2, verify=True)
        with pytest.raises(VerifyFailure) as exc:
            run_points(executor, points)
        assert "madbench2" in str(exc.value)

    def test_verify_failure_stores_nothing_in_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = ExperimentExecutor(jobs=1, cache=cache, verify=True)
        with pytest.raises(VerifyFailure):
            run_points(
                executor, [RunPoint("madbench2", "history", True, self.BAD)]
            )
        assert len(cache) == 0

    def test_verify_off_skips_the_gate(self):
        point = RunPoint("madbench2", "history", True, self.BAD)
        result = run_points(ExperimentExecutor(jobs=1, verify=False), [point])
        assert result[point].energy_joules > 0

    def test_clean_points_pass_the_gate(self):
        point = RunPoint("sar", "history", True, TINY)
        result = run_points(ExperimentExecutor(jobs=1, verify=True), [point])
        assert result[point].prefetches > 0


class TestVerifyMemo:
    """Verification depends on the compiled schedule and the runtime
    model, never on the power policy: one report per compilation and
    runtime, reused by every scheme point sharing them."""

    @staticmethod
    def count_verifies(monkeypatch):
        import repro.analysis

        calls = []
        real = repro.analysis.verify_schedule

        def counting(*args, **kwargs):
            calls.append(kwargs["runtime"])
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.analysis, "verify_schedule", counting)
        return calls

    def test_failing_report_fails_every_sharing_point(self, monkeypatch):
        """The memo holds the report, not a pass: every policy on a bad
        compilation raises, each under its own label."""
        calls = self.count_verifies(monkeypatch)
        runner = Runner(TestVerifyGating.BAD)
        for policy in ("simple", "prediction", "history", "staggered"):
            point = RunPoint("madbench2", policy, True, TestVerifyGating.BAD)
            with pytest.raises(VerifyFailure) as exc:
                execute_point(runner, point, verify=True)
            assert exc.value.label == point.label()
            assert "CAP001" in exc.value.report_text
        assert len(calls) == 1

    def test_runtime_change_is_verified_separately(self, monkeypatch):
        """Buffer capacity is not part of the compilation key, so two
        points share a compilation but not a verification."""
        calls = self.count_verifies(monkeypatch)
        runner = Runner(TINY)
        good = RunPoint("madbench2", "history", True, TINY)
        bad = RunPoint("madbench2", "history", True, TestVerifyGating.BAD)
        assert execute_point(runner, good, verify=True).prefetches > 0
        with pytest.raises(VerifyFailure):
            execute_point(runner, bad, verify=True)
        assert runner.compilation("madbench2", TINY) is runner.compilation(
            "madbench2", TestVerifyGating.BAD
        )
        assert [rt.buffer_capacity_blocks for rt in calls] == [
            TINY.buffer_capacity_blocks,
            1,
        ]

    def test_one_polyhedral_retrace_per_schedule(self, monkeypatch):
        """Four scheme policies on an affine workload: one profiling
        trace, shared by the compiler and the verifier of every policy."""
        import repro.experiments.runner
        import repro.ir.dependence

        traces = []
        for module in (repro.experiments.runner, repro.ir.dependence):
            real = module.trace_program

            def counting(*args, real=real, **kwargs):
                traces.append(args[0].name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "trace_program", counting)
        runner = Runner(TINY)
        for policy in ("simple", "prediction", "history", "staggered"):
            execute_point(runner, RunPoint("sar", policy, True, TINY), verify=True)
        assert len(traces) == 1


class TestRunnerKeying:
    def test_to_key_enumerates_every_field(self):
        from dataclasses import fields

        key = dict(TINY.to_key())
        assert set(key) == {f.name for f in fields(ExperimentConfig)}

    def test_seed_result_is_found_by_run(self):
        runner = Runner(TINY)
        result = Runner(TINY).run("sar", "simple", False)
        runner.seed_result("sar", "simple", False, TINY, result)
        assert runner.run("sar", "simple", False) is result
        assert runner.simulations == 0

    def test_all_apps_enumerable(self):
        # grid covers the paper's six applications
        apps = {p.workload for p in figure_points("table3", TINY)}
        assert apps == set(APPS)
