"""Tests for the command-line interface and the ASCII visualizations."""

import io

import pytest

from repro.cli import build_parser, main
from repro.experiments.figures import FIGURES
from repro.viz import access_density_timeline, drive_state_gantt

from conftest import drain, make_drive, submit_read


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "doom"])

    def test_retired_calendar_kernel_exits_2(self):
        """No subcommand takes ``--kernel`` any more: the retired
        calendar and analytic kernels are usage errors everywhere."""
        commands = (
            ["run", "--app", "sar"],
            ["figure", "fig12c"],
            ["bench", "--trace", "t.jsonl"],
            ["tournament"],
            ["serve"],
        )
        for command in commands:
            for kernel in ("calendar", "analytic"):
                with pytest.raises(SystemExit) as exc:
                    build_parser().parse_args(command + ["--kernel", kernel])
                assert exc.value.code == 2, (command, kernel)

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "table3", "--scale", "0.01", "--no-cache",
             "--jobs", "0"],
            ["figure", "table3", "--no-cache", "--retries", "-1"],
            ["figure", "table3", "--no-cache", "--timeout", "0"],
            ["run", "--app", "sar", "--no-cache", "--jobs", "0"],
            ["tournament", "--no-record", "--no-cache", "--jobs", "0"],
            ["resume", "missing.jsonl", "--jobs", "0"],
            ["loadtest", "--clients", "0"],
            ["loadtest", "--requests", "0"],
        ],
        ids=lambda argv: "-".join(argv[:1] + argv[-2:]),
    )
    def test_bad_numeric_argument_exits_2(self, argv, capsys):
        """Out-of-range counts and durations are usage errors (exit 2,
        a message, no traceback), caught before any work starts."""
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--scale", "-1"),
            ("--scale", "0"),
            ("--scale", "nan"),
            ("--clients", "0"),
            ("--ionodes", "0"),
            ("--delta", "-1"),
            ("--theta", "0"),
        ],
    )
    def test_out_of_range_config_exits_2(self, flag, value, capsys):
        """A config the workloads or the stripe map cannot use is refused
        with the config's own message, before any simulation."""
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--app", "sar", "--no-cache", flag, value)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro run: error: config field" in err
        assert "Traceback" not in err

    def test_every_registered_figure_parses(self):
        parser = build_parser()
        for name in FIGURES:
            args = parser.parse_args(["figure", name])
            assert args.name == name


class TestCommands:
    def test_list(self):
        code, text = run_cli("list")
        assert code == 0
        for app in ("hf", "sar", "astro", "apsi", "madbench2", "wupwise"):
            assert app in text
        assert "history" in text

    def test_run_without_scheme(self):
        code, text = run_cli(
            "run", "--app", "madbench2", "--policy", "simple",
            "--scale", "0.05",
        )
        assert code == 0
        assert "energy saving" in text
        assert "perf degradation" in text

    def test_run_with_scheme_reports_prefetches(self):
        code, text = run_cli(
            "run", "--app", "madbench2", "--scheme", "--scale", "0.05",
        )
        assert code == 0
        assert "prefetches" in text

    def test_run_with_overrides(self):
        code, text = run_cli(
            "run", "--app", "madbench2", "--scale", "0.05",
            "--clients", "8", "--ionodes", "4", "--delta", "10",
            "--theta", "2",
        )
        assert code == 0

    def test_figure_table2(self):
        code, text = run_cli("figure", "table2")
        assert code == 0
        assert "Number of I/O nodes" in text

    def test_figure_table3_small(self, monkeypatch):
        code, text = run_cli("figure", "table3", "--scale", "0.05")
        assert code == 0
        assert "wupwise" in text

    def test_figure_with_jobs_and_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, text = run_cli(
            "figure", "fig12a", "--scale", "0.05",
            "--jobs", "2", "--cache-dir", cache_dir,
        )
        assert code == 0
        assert "wupwise" in text
        # Warm replay reproduces the figure byte-for-byte from the cache.
        code2, text2 = run_cli(
            "figure", "fig12a", "--scale", "0.05", "--cache-dir", cache_dir,
        )
        assert code2 == 0
        assert text2 == text

    def test_run_no_cache(self):
        code, text = run_cli(
            "run", "--app", "sar", "--scale", "0.05", "--no-cache",
        )
        assert code == 0
        assert "energy saving" in text

    def test_bench_quick_writes_record(self, tmp_path):
        import json

        code, text = run_cli(
            "bench", "--quick", "--figures", "table3",
            "--trace", str(tmp_path / "t.jsonl"),
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        assert "record written to" in text
        records = list(tmp_path.glob("BENCH_*.json"))
        assert len(records) == 1
        record = json.loads(records[0].read_text())
        assert record["kind"] == "repro-bench"
        assert record["points"] == 6
        assert record["traced_seconds"] > 0
        assert "trace_overhead" in record
        # The record holds the overhead measurement only: throughput
        # belongs to bench/run.py, envelope widths to ``repro analyze``.
        for key in ("point_stats", "events_per_sec", "kernel", "envelopes",
                    "envelope_mean_relative_width", "serial_seconds",
                    "parallel_seconds", "speedup", "server", "tournament",
                    "jobs"):
            assert key not in record

    def test_bench_zero_repeats_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "bench", "--figures", "table3", "--scale", "0.05",
                "--trace", str(tmp_path / "t.jsonl"),
                "--repeats", "0", "--output-dir", str(tmp_path),
            )
        assert exc.value.code == 2
        assert "--repeats: must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_bench_rejects_unknown_figure(self, tmp_path):
        code, _text = run_cli(
            "bench", "--figures", "fig99", "--output-dir", str(tmp_path),
            "--trace", str(tmp_path / "t.jsonl"),
        )
        assert code == 2

    def test_schedule_with_timeline(self):
        code, text = run_cli(
            "schedule", "--app", "madbench2", "--scale", "0.05",
            "--timeline", "--width", "40",
        )
        assert code == 0
        assert "BEFORE scheduling" in text
        assert "AFTER scheduling" in text
        assert "node  0" in text


class TestDensityTimeline:
    def make_result(self):
        from repro.core import CompilerOptions, compile_schedule
        from repro.ir import Compute, FileDecl, Loop, Program, Read, var
        from repro.storage import StripedFile, StripeMap

        files = {"f": FileDecl("f", 64, 128 * 1024)}
        prog = Program("viz", 2, files, [
            Loop("i", 0, 15, body=[
                Read("f", var("p") * 16 + var("i")),
                Compute(0.5), Compute(0.5),
            ]),
        ])
        smap = StripeMap(64 * 1024, 4)
        striped = {"f": StripedFile("f", files["f"].size_bytes)}
        return compile_schedule(prog, smap, striped, CompilerOptions(delta=4))

    def test_renders_both_panels(self):
        text = access_density_timeline(self.make_result(), width=20)
        assert "BEFORE scheduling" in text
        assert "AFTER scheduling" in text
        assert text.count("node  0") == 2

    def test_row_count_matches_nodes(self):
        text = access_density_timeline(self.make_result(), width=20)
        assert text.count("node ") == 8  # 4 nodes x 2 panels

    def test_width_validation(self):
        with pytest.raises(ValueError):
            access_density_timeline(self.make_result(), width=2)


class TestGantt:
    def test_gantt_shows_states(self, sim):
        drive = make_drive(sim)
        submit_read(sim, drive, 0.0)
        sim.schedule(1.0, drive.spin_down)
        submit_read(sim, drive, 30.0)
        drain(sim, drive)
        text = drive_state_gantt([drive], horizon=sim.now, width=40)
        assert "_" in text      # standby
        assert "^" in text      # spin-up
        assert "legend" in text

    def test_gantt_reduced_speed_digits(self, sim):
        from conftest import multispeed_fast_spec

        drive = make_drive(sim, multispeed_fast_spec())
        drive.request_rpm(3_600)
        sim.run(until=60.0)
        drive.finalize()
        text = drive_state_gantt([drive], horizon=60.0, width=40)
        assert "7" in text      # deepest level = 7 steps below max

    def test_gantt_validation(self, sim):
        drive = make_drive(sim)
        with pytest.raises(ValueError):
            drive_state_gantt([drive], horizon=0.0)
