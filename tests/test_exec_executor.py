"""Tests for grid enumeration, point execution and the campaign's cache
resolution.

The headline guarantees: parallel execution is *bit-identical* to serial,
a warm cache performs zero simulations, and a verify failure in a worker
surfaces as a clear top-level error instead of hanging the pool.
"""

import pytest

from repro.exec import (
    CampaignSupervisor,
    ResultCache,
    RunPoint,
    VerifyFailure,
    all_figure_points,
    execute_point,
    figure_points,
)
from repro.exec.grid import GRID_FIGURES
from repro.experiments import APPS, ExperimentConfig, Runner, fig12c
from repro.experiments.figures import FIGURES
from repro.experiments.runner import RunResult
from repro.metrics.idle import idle_cdf

TINY = ExperimentConfig(workload_scale=0.05)


def tiny_points(apps=("sar", "madbench2"), scheme=False):
    return [RunPoint(app, "simple", scheme, TINY) for app in apps]


def run_points(points, **campaign):
    """Resolve ``points`` through a campaign built from ``campaign``."""
    return CampaignSupervisor(**campaign).run_points(points).results


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

    def test_sliced_sweep_reads_only_its_slice(self):
        """Driver arguments narrow the grid exactly as they narrow the
        figure: two node counts × one app × scheme off/on."""
        points = figure_points("fig13c", TINY, values=(2, 8), apps=("sar",))
        assert len(points) == 4
        assert {(p.workload, p.config.n_ionodes) for p in points} == {
            ("sar", 2), ("sar", 8)
        }

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_grid_covers_every_run_the_figure_renders(self, name,
                                                      monkeypatch):
        """After a campaign warms a figure's grid, rendering it reads only
        the memo: a run the grid forgot would reach ``_simulate``."""
        runner = Runner(TINY)
        for n, point in enumerate(figure_points(name, TINY)):
            periods = [0.05 * (n + 1), 2.0, 30.0]
            runner.seed_result(
                point.workload, point.policy, point.scheme, point.config,
                RunResult(
                    workload=point.workload,
                    policy=point.policy,
                    scheme=point.scheme,
                    execution_time=100.0 + n,
                    energy_joules=1000.0 - n,
                    idle_cdf=idle_cdf(periods),
                    idle_periods=periods,
                    energy_breakdown={"idle": 1000.0 - n},
                    buffer_hits=n,
                    prefetches=n,
                    accesses=n,
                ),
            )

        def no_simulation(*args, **kwargs):
            raise AssertionError(f"{name} simulated a point off its grid")

        monkeypatch.setattr(Runner, "_simulate", no_simulation)
        assert FIGURES[name](runner).text


class TestEquivalence:
    @pytest.mark.parametrize("apps", [("sar",), ("madbench2",)])
    def test_parallel_bit_identical_to_serial(self, apps):
        """Same workload through jobs=1 and jobs=2 must agree exactly."""
        points = tiny_points(apps=apps)
        serial = run_points(points, jobs=1)
        # Force the pool even for few points by adding a second app when
        # needed; compare only the points under test.
        pool_points = points + tiny_points(apps=("hf",))
        parallel = run_points(pool_points, jobs=2)
        for point in points:
            assert parallel[point] == serial[point]

    def test_executor_matches_direct_runner(self):
        point = RunPoint("sar", "history", True, TINY)
        via_executor = run_points([point], jobs=1)[point]
        direct = Runner(TINY).run("sar", "history", True)
        assert via_executor == direct

    def test_duplicates_resolved_once(self):
        point = RunPoint("sar", "simple", False, TINY)
        report = CampaignSupervisor(jobs=1).run_points([point, point, point])
        assert len(report.outcomes) == 1
        assert report.counts()["ok"] == 1
        assert len(report.results) == 1


class TestCacheIntegration:
    def test_warm_cache_performs_zero_simulations(self, tmp_path):
        points = tiny_points() + tiny_points(scheme=True)
        cold = CampaignSupervisor(
            jobs=1, cache=ResultCache(tmp_path)
        ).run_points(points)
        assert cold.counts()["ok"] == len(points)
        assert cold.counts()["cached"] == 0

        warm = CampaignSupervisor(
            jobs=2, cache=ResultCache(tmp_path)
        ).run_points(points)
        assert warm.counts()["ok"] == 0
        assert warm.counts()["cached"] == len(points)
        for point in points:
            assert warm.results[point] == cold.results[point]

    def test_full_figure_replay_is_pure_cache(self, tmp_path):
        """A repeated figure invocation with a warm cache simulates
        nothing and reproduces the figure exactly (acceptance criterion).
        """
        cfg = TINY
        points = figure_points("fig12c", cfg)

        first_runner = Runner(cfg)
        CampaignSupervisor(jobs=1, cache=ResultCache(tmp_path)).warm_runner(
            first_runner, points
        )
        first = fig12c(first_runner)

        replay_runner = Runner(cfg)
        replay = CampaignSupervisor(
            jobs=1, cache=ResultCache(tmp_path)
        ).warm_runner(replay_runner, points)
        second = fig12c(replay_runner)

        assert replay.counts()["ok"] == 0
        assert replay.counts()["cached"] == len(points)
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
        with pytest.raises(VerifyFailure) as exc:
            run_points(points, jobs=2, verify=True)
        assert "madbench2" in str(exc.value)

    def test_verify_failure_stores_nothing_in_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(VerifyFailure):
            run_points(
                [RunPoint("madbench2", "history", True, self.BAD)],
                jobs=1, cache=cache, verify=True,
            )
        assert len(cache) == 0

    def test_verify_off_skips_the_gate(self):
        point = RunPoint("madbench2", "history", True, self.BAD)
        result = run_points([point], jobs=1, verify=False)
        assert result[point].energy_joules > 0

    def test_clean_points_pass_the_gate(self):
        point = RunPoint("sar", "history", True, TINY)
        result = run_points([point], jobs=1, verify=True)
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
