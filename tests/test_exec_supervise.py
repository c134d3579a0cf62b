"""Tests for the campaign supervisor (:mod:`repro.exec.supervise`).

The headline guarantees: a fault-free campaign is bit-identical at
``jobs=1`` and ``jobs=2``; a worker SIGKILL mid-campaign is
recovered (pool respawn + requeue) and the campaign still completes; a
hung point is reclaimed by the watchdog; a repeat pool-killer is
quarantined without taking innocent siblings with it; and the JSONL
journal is valid after any interruption and drives bit-identical resume
through the content-addressed cache.

The scripted stub worker below is module-level on purpose: forked pool
workers pickle callables by qualified name.  Cross-process coordination
goes through marker files under the directory named by the
``REPRO_SUPERVISE_TEST_DIR`` environment variable (inherited at fork).
"""

import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.exec import (
    CampaignFailed,
    CampaignJournal,
    CampaignReport,
    CampaignSupervisor,
    JOURNAL_SCHEMA_VERSION,
    PointFailure,
    ResultCache,
    RunPoint,
    VerifyFailure,
    WorkerFailure,
    backoff_delay,
    load_journal,
    point_digest,
    supervise,
)
from repro.exec.supervise import (
    OUTCOME_CACHED,
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_QUARANTINED,
    OUTCOME_TIMEOUT,
)
from repro.experiments import ExperimentConfig
from repro.experiments.runner import RunResult
from repro.metrics.idle import idle_cdf
from repro.obs import MetricsRegistry

TINY = ExperimentConfig(workload_scale=0.05)
ENV_DIR = "REPRO_SUPERVISE_TEST_DIR"


def canned_result(point):
    return RunResult(
        workload=point.workload,
        policy=point.policy,
        scheme=point.scheme,
        execution_time=1.25,
        energy_joules=50.0,
        idle_cdf=idle_cdf([]),
        idle_periods=[],
        energy_breakdown={"idle": 1.0},
        buffer_hits=3,
        prefetches=2,
        accesses=7,
    )


def scripted_worker(runner, point, metrics=False, tracer=None):
    """Stub point body whose behaviour keys off ``point.workload``.

    ``ok*``     succeed immediately (and drop a completion marker);
    ``flakyN``  raise for the first N attempts, then succeed;
    ``doomed``  always raise ValueError;
    ``doomedlate`` raise ValueError after its pool-mates have finished;
    ``badverify`` raise VerifyFailure (non-retryable by contract);
    ``killonce``/``killer`` SIGKILL their own worker process;
    ``hangonce``/``hang``   sleep far past any watchdog timeout;
    ``interrupt`` wait for okA's marker, then raise KeyboardInterrupt.
    """
    scratch = Path(os.environ[ENV_DIR])
    name = point.workload
    marker = scratch / f"marker-{name}"
    if name.startswith("ok"):
        marker.touch()
    elif name.startswith("flaky"):
        tries = scratch / f"tries-{name}"
        count = int(tries.read_text()) if tries.exists() else 0
        tries.write_text(str(count + 1))
        if count < int(name.removeprefix("flaky")):
            raise ValueError(f"transient failure #{count + 1}")
    elif name == "doomed":
        raise ValueError("permanently broken point")
    elif name == "doomedlate":
        time.sleep(0.5)
        raise ValueError("permanently broken point")
    elif name == "badverify":
        raise VerifyFailure(point.label(), "synthetic verifier report")
    elif name == "killonce":
        if not marker.exists():
            marker.touch()
            os.kill(os.getpid(), signal.SIGKILL)
    elif name == "killer":
        os.kill(os.getpid(), signal.SIGKILL)
    elif name == "hangonce":
        if not marker.exists():
            marker.touch()
            time.sleep(60.0)
    elif name == "hang":
        time.sleep(60.0)
    elif name == "interrupt":
        deadline = time.monotonic() + 10.0
        while not (scratch / "marker-okA").exists():
            if time.monotonic() > deadline:
                raise RuntimeError("okA never finished")
            time.sleep(0.01)
        time.sleep(0.2)  # let the parent drain okA's future first
        raise KeyboardInterrupt()
    else:
        raise AssertionError(f"unknown scripted workload {name!r}")
    return canned_result(point), (
        MetricsRegistry().snapshot() if metrics else None
    )


def stub_points(*names, scheme=False):
    return [RunPoint(name, "simple", scheme, TINY) for name in names]


def make_supervisor(jobs=1, cache=None, journal=None, metrics=False,
                    **policy):
    """A campaign over the scripted worker; ``policy`` is ``timeout``,
    ``retries`` and/or ``keep_going``."""
    return CampaignSupervisor(
        jobs=jobs,
        cache=cache,
        metrics=metrics,
        journal=journal,
        worker_fn=scripted_worker,
        **policy,
    )


def tune(monkeypatch, **constants):
    """Override supervision constants (``BACKOFF_BASE``,
    ``QUARANTINE_AFTER``, ``MAX_POOL_BREAKS``...) for one test."""
    for name, value in constants.items():
        assert hasattr(supervise, name), name
        monkeypatch.setattr(supervise, name, value)


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_DIR, str(tmp_path))
    return tmp_path


# ----------------------------------------------------------------------
# Policy and backoff
# ----------------------------------------------------------------------
class TestPolicyAndBackoff:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"retries": -1},
            {"jobs": 0},
            {"jobs": -1},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CampaignSupervisor(**kwargs)

    def test_backoff_is_deterministic(self):
        a = backoff_delay("d" * 64, 3)
        b = backoff_delay("d" * 64, 3)
        assert a == b

    def test_backoff_zero_before_first_retry(self):
        assert backoff_delay("d" * 64, 0) == 0.0

    def test_backoff_jittered_exponential_within_bounds(self):
        base, cap = 0.1, 1.0
        for attempt in range(1, 8):
            delay = backoff_delay("e" * 64, attempt, base, cap)
            ceiling = min(cap, base * 2.0 ** (attempt - 1))
            assert ceiling / 2 <= delay <= ceiling

    def test_backoff_varies_across_points(self):
        delays = {backoff_delay(d * 64, 1) for d in "abcdef"}
        assert len(delays) > 1


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_new_journal_requires_argv(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignJournal(tmp_path / "j.jsonl")

    def test_round_trip_last_entry_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, argv=["figure", "fig12c"]) as journal:
            journal.record("a" * 64, "sar/simple/plain", "retried", 1)
            journal.record("a" * 64, "sar/simple/plain", "ok", 1)
            journal.record("b" * 64, "qcd/simple/plain", "cached")
        header, entries = load_journal(path)
        assert header["argv"] == ["figure", "fig12c"]
        assert header["schema"] == JOURNAL_SCHEMA_VERSION
        assert entries["a" * 64]["outcome"] == "ok"
        assert entries["b" * 64]["outcome"] == "cached"

    def test_reopen_appends_without_new_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CampaignJournal(path, argv=["run"]).close()
        with CampaignJournal(path) as journal:  # no argv needed
            journal.record("c" * 64, "x/y/plain", "ok")
        lines = path.read_text().strip().splitlines()
        assert sum('"campaign-journal"' in line for line in lines) == 1

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, argv=["run"]) as journal:
            journal.record("a" * 64, "sar/simple/plain", "ok")
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"digest": "bbbb", "outco')  # simulated SIGKILL
        _header, entries = load_journal(path)
        assert list(entries) == ["a" * 64]

    def test_unknown_outcome_rejected(self, tmp_path):
        with CampaignJournal(tmp_path / "j.jsonl", argv=["run"]) as journal:
            with pytest.raises(ValueError):
                journal.record("a" * 64, "sar/simple/plain", "exploded")

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-journal.jsonl"
        path.write_text('{"digest": "aaaa", "outcome": "ok"}\n')
        with pytest.raises(ValueError):
            load_journal(path)

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        record = {"kind": "campaign-journal", "schema": 999, "argv": []}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError):
            load_journal(path)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
class TestReport:
    def test_raise_if_failed_carries_every_failure(self):
        report = CampaignReport()
        for n in range(3):
            report.failures.append(
                PointFailure(
                    label=f"w{n}/simple/plain",
                    digest=str(n) * 64,
                    outcome="failed",
                    error=f"boom {n}",
                    attempts=n,
                )
            )
        with pytest.raises(CampaignFailed) as info:
            report.raise_if_failed()
        assert len(info.value.failures) == 3
        for n in range(3):
            assert f"boom {n}" in str(info.value)

    def test_interrupted_report_is_not_ok(self):
        report = CampaignReport()
        assert report.ok
        report.interrupted = True
        assert not report.ok


# ----------------------------------------------------------------------
# Serial supervision (retries, fail-fast vs keep-going)
# ----------------------------------------------------------------------
class TestSerialSupervision:
    def test_flaky_point_retries_to_success(self, scratch, monkeypatch):
        tune(monkeypatch, BACKOFF_BASE=0.001)
        supervisor = make_supervisor(retries=2)
        report = supervisor.run_points(stub_points("flaky2"))
        assert report.ok
        assert report.retries == 2
        assert supervisor.metrics.counter("exec.retries").value == 2
        digest = point_digest(TINY, "flaky2", "simple", False)
        assert report.outcomes[digest] == OUTCOME_OK

    def test_retry_budget_exhausted_fails_fast(self, scratch, monkeypatch):
        tune(monkeypatch, BACKOFF_BASE=0.001)
        supervisor = make_supervisor(retries=1)
        with pytest.raises(ValueError, match="transient failure"):
            supervisor.run_points(stub_points("flaky5"))

    def test_verify_failure_never_retried(self, scratch):
        supervisor = make_supervisor(retries=5, keep_going=True)
        report = supervisor.run_points(stub_points("badverify"))
        assert report.retries == 0
        assert report.failures[0].outcome == OUTCOME_FAILED

    def test_keep_going_collects_all_failures(self, scratch):
        supervisor = make_supervisor(retries=0, keep_going=True)
        report = supervisor.run_points(
            stub_points("doomed", "okG", "badverify")
        )
        assert len(report.failures) == 2
        assert len(report.results) == 1
        assert {f.label.split("/")[0] for f in report.failures} == {
            "doomed",
            "badverify",
        }
        with pytest.raises(CampaignFailed):
            report.raise_if_failed()

    def test_failfast_raise_preserves_completed_siblings(self, scratch,
                                                         tmp_path):
        cache = ResultCache(tmp_path / "cache")
        supervisor = make_supervisor(retries=0, cache=cache)
        with pytest.raises(ValueError):
            supervisor.run_points(stub_points("okH", "doomed"))
        assert cache.lookup(TINY, "okH", "simple", False) is not None

    def test_supervisor_metrics_land_in_report(self, scratch, monkeypatch):
        tune(monkeypatch, BACKOFF_BASE=0.001)
        supervisor = make_supervisor(retries=1, metrics=True)
        merged = supervisor.run_points(stub_points("flaky1")).metrics
        assert merged["counters"]["exec.retries"] == 1
        assert merged["counters"]["exec.worker_deaths"] == 0
        assert merged["histograms"]["exec.retry_backoff_s"]["count"] == 1
        # One point ran; the campaign-level exec.* family is not a run.
        assert merged["merged_runs"] == 1


# ----------------------------------------------------------------------
# Journaled outcomes and cache-driven resume
# ----------------------------------------------------------------------
class TestJournaledCampaign:
    def test_outcomes_journaled_and_cached_on_resume(self, scratch,
                                                     tmp_path):
        cache_dir = tmp_path / "cache"
        points = stub_points("okI", "okJ")

        first = make_supervisor(
            cache=ResultCache(cache_dir),
            journal=CampaignJournal(tmp_path / "first.jsonl", argv=["run"]),
        )
        report = first.run_points(points)
        first.journal.close()
        assert report.ok
        _header, entries = load_journal(tmp_path / "first.jsonl")
        assert {e["outcome"] for e in entries.values()} == {OUTCOME_OK}

        second = make_supervisor(
            cache=ResultCache(cache_dir),
            journal=CampaignJournal(tmp_path / "second.jsonl", argv=["run"]),
        )
        resumed = second.run_points(points)
        second.journal.close()
        assert resumed.counts()[OUTCOME_OK] == 0
        assert resumed.counts()[OUTCOME_CACHED] == 2
        assert set(resumed.outcomes.values()) == {OUTCOME_CACHED}
        assert resumed.results == report.results
        _header, entries = load_journal(tmp_path / "second.jsonl")
        assert {e["outcome"] for e in entries.values()} == {OUTCOME_CACHED}


# ----------------------------------------------------------------------
# Pool supervision: crash recovery, quarantine, watchdog, interrupt
# ----------------------------------------------------------------------
class TestPoolRecovery:
    def test_worker_sigkill_recovered_and_campaign_completes(self, scratch,
                                                             monkeypatch):
        """SIGKILL a child mid-campaign: pool respawns, the point is
        requeued, and every result still arrives."""
        tune(monkeypatch, BACKOFF_BASE=0.01, MAX_POOL_BREAKS=6)
        supervisor = make_supervisor(jobs=2)
        report = supervisor.run_points(stub_points("killonce", "okB"))
        assert report.ok
        assert len(report.results) == 2
        assert report.worker_deaths >= 1
        assert (
            supervisor.metrics.counter("exec.worker_deaths").value
            == report.worker_deaths
        )

    def test_repeat_killer_quarantined_innocents_complete(self, scratch,
                                                          monkeypatch):
        """A point that kills every pool it touches is quarantined after
        ``QUARANTINE_AFTER`` attributable deaths; co-scheduled innocent
        siblings are requeued, not blamed, and all complete."""
        tune(
            monkeypatch,
            BACKOFF_BASE=0.01,
            QUARANTINE_AFTER=2,
            MAX_POOL_BREAKS=8,
        )
        supervisor = make_supervisor(jobs=2, keep_going=True)
        report = supervisor.run_points(stub_points("killer", "okE", "okF"))
        assert len(report.results) == 2  # both innocents finished
        assert [f.outcome for f in report.failures] == [OUTCOME_QUARANTINED]
        assert report.failures[0].label == "killer/simple/plain"
        assert supervisor.metrics.counter("exec.quarantined").value == 1
        assert report.worker_deaths >= supervise.QUARANTINE_AFTER

    def test_failfast_pool_raise_preserves_completed_siblings(
        self, scratch, tmp_path
    ):
        """Pool-mates that finished before a fail-fast failure keep their
        cached results, so a rerun repeats only the failed point."""
        cache = ResultCache(tmp_path / "cache")
        supervisor = make_supervisor(jobs=2, retries=0, cache=cache)
        # Pool failures arrive flattened by the pool's entry point.
        with pytest.raises(WorkerFailure, match="permanently broken") as info:
            supervisor.run_points(stub_points("okJ", "okK", "doomedlate"))
        assert info.value.kind == "ValueError"
        for name in ("okJ", "okK"):
            assert cache.lookup(TINY, name, "simple", False) is not None
        assert cache.lookup(TINY, "doomedlate", "simple", False) is None

    def test_watchdog_reclaims_hung_worker_then_retry_succeeds(
        self, scratch, monkeypatch
    ):
        tune(monkeypatch, BACKOFF_BASE=0.01, MAX_POOL_BREAKS=6)
        supervisor = make_supervisor(jobs=2, timeout=0.5, retries=1)
        report = supervisor.run_points(stub_points("hangonce", "okC"))
        assert report.ok
        assert len(report.results) == 2
        assert report.timeouts == 1
        assert supervisor.metrics.counter("exec.timeouts").value == 1

    def test_watchdog_terminal_timeout_reported(self, scratch):
        supervisor = make_supervisor(
            jobs=2, timeout=0.5, retries=0, keep_going=True
        )
        report = supervisor.run_points(stub_points("hang", "okD"))
        assert len(report.results) == 1
        assert [f.outcome for f in report.failures] == [OUTCOME_TIMEOUT]
        assert "no result within" in report.failures[0].error
        with pytest.raises(CampaignFailed):
            report.raise_if_failed()

    def test_worker_interrupt_leaves_valid_journal_and_checkpoints(
        self, scratch, tmp_path, monkeypatch
    ):
        """A KeyboardInterrupt surfacing from the pool aborts the
        campaign but the journal stays loadable and completed siblings
        are already cached — exactly what ``repro resume`` needs."""
        cache = ResultCache(tmp_path / "cache")
        journal = CampaignJournal(tmp_path / "j.jsonl", argv=["run"])
        tune(monkeypatch, BACKOFF_BASE=0.01)
        supervisor = make_supervisor(jobs=2, cache=cache, journal=journal)
        with pytest.raises(KeyboardInterrupt):
            supervisor.run_points(stub_points("okA", "interrupt"))
        journal.close()
        assert cache.lookup(TINY, "okA", "simple", False) is not None
        _header, entries = load_journal(tmp_path / "j.jsonl")
        ok_digest = point_digest(TINY, "okA", "simple", False)
        assert entries[ok_digest]["outcome"] == OUTCOME_OK


# ----------------------------------------------------------------------
# Determinism: supervision must not perturb real results
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_supervised_jobs1_and_jobs2_bit_identical(self):
        points = [
            RunPoint("sar", "simple", False, TINY),
            RunPoint("madbench2", "simple", False, TINY),
        ]
        serial = CampaignSupervisor(jobs=1).run_points(points)
        pooled = CampaignSupervisor(jobs=2).run_points(points)
        assert serial.ok and pooled.ok
        assert pooled.results == serial.results
