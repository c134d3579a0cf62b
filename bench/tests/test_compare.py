"""Verdicts of the comparison tool."""

import json

import compare


def test_same_distribution_is_unchanged():
    a = [10.0, 10.1, 9.9, 10.05, 9.95]
    j = compare.judge(a, list(reversed(a)), "lower", 0.1)
    assert j["verdict"] == "unchanged"


def test_worse_beyond_the_bound_is_regressed():
    a = [10.0, 10.1, 9.9, 10.05, 9.95]
    j = compare.judge(a, [v * 1.2 for v in a], "lower", 0.1)
    assert j["verdict"] == "regressed" and j["wins_a"] == 5


def test_consistent_gain_beyond_the_spread_is_improved():
    a = [10.0, 10.1, 9.9, 10.05, 9.95]
    j = compare.judge(a, [v * 0.8 for v in a], "lower", 0.1)
    assert j["verdict"] == "improved" and j["wins_b"] == 5
    # Direction matters: for a higher-is-better metric it is a loss.
    assert compare.judge(a, [v * 0.8 for v in a], "higher", 0.1)[
        "verdict"] == "regressed"


def test_spread_wider_than_the_bound_is_unresolved():
    a = [10.0, 14.0, 7.0, 12.0, 8.0]
    j = compare.judge(a, [9.0, 13.0, 7.5, 11.0, 8.5], "lower", 0.1)
    assert j["verdict"] == "unresolved"
    # ...unless every run of the change beats every run of the parent.
    j = compare.judge(a, [1.0, 1.5, 1.2, 1.1, 1.3], "lower", 0.1)
    assert j["verdict"] == "improved"


def test_main_reports_one_row_per_workload_and_metric(tmp_path, capsys):
    for side, scale in (("a", 1.0), ("b", 1.5)):
        directory = tmp_path / side
        directory.mkdir()
        for workload in ("fig-scheme", "serve-cold"):
            for seed in range(5):
                for trace, metric, value in ((0, "wall_s", scale + seed / 100),
                                             (1, "sim.events", 42)):
                    record = {"workload": workload, "seed": seed,
                              "trace": trace, "result": {"metrics": {
                                  metric: {"value": value}}}}
                    (directory / f"{workload}-{seed}-{trace}.json").write_text(
                        json.dumps(record))
    rc = compare.main([str(tmp_path / "a"), str(tmp_path / "b")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert len(lines) == 1 + 4  # header, then one row per pair with data
    assert sum("wall_s" in line and "regressed" in line for line in lines) == 2
    assert sum("sim.events" in line and "identical" in line
               for line in lines) == 2
