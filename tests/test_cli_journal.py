"""The campaign journal's argv: ``repro resume`` replays the launched
campaign exactly.

The header argv is derived from the subcommand parser, so every option
round-trips through it, and values the launch resolved from the
environment are pinned rather than re-resolved at resume time.  Every
journaled command also shares one exit contract when its campaign is
interrupted or fails, and closes its journal either way.
"""

import argparse
import io
import os

import pytest

from repro.cli import (
    _campaign_argv,
    _nonnegative_int,
    _path,
    _positive_float,
    _positive_int,
    build_parser,
    main,
)
from repro.exec import (
    CampaignFailed,
    CampaignJournal,
    CampaignSupervisor,
    PointFailure,
    PointTimeout,
    VerifyFailure,
    WorkerFailure,
    load_journal,
)
from repro.experiments import default_config

#: Every subcommand that takes ``--journal``.
JOURNALED = ("run", "figure", "tournament")


def subcommand_parser(command):
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subparsers.choices[command]


def non_default_argv(command):
    """An argv that moves every option of ``command`` off its default
    (one member per mutually exclusive group)."""
    parser = subcommand_parser(command)
    excluded = {
        action.dest
        for group in parser._mutually_exclusive_groups
        for action in group._group_actions[1:]
    }
    argv = [command]
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction) or action.dest in excluded:
            continue
        if action.nargs == 0:
            argv.append(action.option_strings[0])
            continue
        if action.choices:
            value = next(c for c in action.choices if c != action.default)
        elif action.type in (int, _positive_int, _nonnegative_int):
            value = 3
        elif action.type in (float, _positive_float):
            value = 0.5
        else:
            value = f"rel/{action.dest}"
        argv += action.option_strings[:1] + [str(value)]
    return argv


def absolutized(args, command):
    """``vars(args)`` with every path option made absolute."""
    expected = vars(args).copy()
    for action in subcommand_parser(command)._actions:
        if action.type is _path and expected.get(action.dest) is not None:
            expected[action.dest] = os.path.abspath(expected[action.dest])
    return expected


@pytest.mark.parametrize("command", JOURNALED)
def test_every_option_round_trips(command):
    args = build_parser().parse_args(non_default_argv(command))
    unmoved = {
        action.dest for action in subcommand_parser(command)._actions
        if getattr(args, action.dest, action.default) == action.default
    }
    # Only --help and --keep-going's exclusive partner stay at default.
    assert unmoved <= {"help", "fail_fast"}
    replayed = build_parser().parse_args(_campaign_argv(args, command))
    assert vars(replayed) == absolutized(args, command)


@pytest.mark.parametrize("command", JOURNALED)
def test_defaults_pin_environment_resolved_values(command, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    argv = [command, "--journal", "j.jsonl"]
    if command == "figure":
        argv.insert(1, "fig12c")
    if command == "run":
        argv += ["--app", "sar"]
    args = build_parser().parse_args(argv)
    launch_cache = os.path.abspath(os.environ["REPRO_CACHE_DIR"])
    recorded = _campaign_argv(args, command)
    monkeypatch.setenv("REPRO_SCALE", "0.07")
    monkeypatch.setenv("REPRO_CACHE_DIR", "elsewhere")
    replayed = build_parser().parse_args(recorded)
    assert default_config(scale=replayed.scale).workload_scale == 0.05
    assert replayed.cache_dir == launch_cache
    assert replayed.journal == os.path.abspath("j.jsonl")


def test_resume_under_changed_repro_scale_replays_journaled_digests(
    tmp_path, monkeypatch
):
    """A journal launched under one ``REPRO_SCALE`` must resume the same
    grid under another: every resumed point is a cache hit on a
    journaled digest, and no new digest appears."""
    journal = tmp_path / "campaign.jsonl"
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    code = main(
        ["run", "--app", "sar", "--policy", "simple",
         "--journal", str(journal)],
        out=io.StringIO(),
    )
    assert code == 0
    _header, launched = load_journal(journal)
    assert launched

    monkeypatch.setenv("REPRO_SCALE", "0.07")
    assert main(["resume", str(journal)], out=io.StringIO()) == 0
    _header, resumed = load_journal(journal)
    assert set(resumed) == set(launched)
    assert {entry["outcome"] for entry in resumed.values()} == {"cached"}


#: A cheap argv per journaled command (the supervisor is stubbed out).
CAMPAIGN_ARGV = {
    "run": ["run", "--app", "sar"],
    "figure": ["figure", "table3"],
    "tournament": ["tournament", "--workloads", "sar", "--entrants",
                   "forecast", "--scenarios", "clean", "--no-record"],
}

def campaign_exit(exc, code, message):
    """(exception the supervisor raises, exit code, stderr fragment)."""
    return pytest.param(exc, code, message, id=type(exc).__name__)


CAMPAIGN_EXITS = [
    campaign_exit(KeyboardInterrupt(), 130, "resume with: repro resume"),
    campaign_exit(
        VerifyFailure("sar/simple/scheme", "VERIFY001"), 1,
        "campaign failed: schedule verification failed for sar/simple/scheme",
    ),
    campaign_exit(
        WorkerFailure("sar/simple/plain", "RuntimeError", "boom"), 1,
        "campaign failed: sar/simple/plain: RuntimeError: boom",
    ),
    campaign_exit(
        PointTimeout("sar/simple/plain", 2.0, 3), 1,
        "campaign failed: sar/simple/plain: no result within 2s",
    ),
    campaign_exit(
        CampaignFailed([PointFailure(
            "sar/simple/plain", "0" * 64, "failed", "boom", 1)]), 1,
        "campaign failed: 1 point(s) failed",
    ),
]


@pytest.mark.parametrize("command", JOURNALED)
@pytest.mark.parametrize("exc, code, message", CAMPAIGN_EXITS)
def test_campaign_exit_contract(
    command, exc, code, message, tmp_path, monkeypatch, capsys
):
    def raise_exc(self, runner, points):
        raise exc

    closed = []
    real_close = CampaignJournal.close

    def spy_close(self):
        closed.append(self)
        real_close(self)

    monkeypatch.setattr(CampaignSupervisor, "warm_runner", raise_exc)
    monkeypatch.setattr(CampaignJournal, "close", spy_close)
    journal = tmp_path / "campaign.jsonl"
    argv = CAMPAIGN_ARGV[command] + [
        "--scale", "0.05", "--no-cache", "--journal", str(journal),
    ]
    assert main(argv, out=io.StringIO()) == code
    assert message in capsys.readouterr().err
    assert len(closed) == 1
