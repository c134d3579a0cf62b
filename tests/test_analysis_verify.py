"""Schedule verifier: golden bad-schedule fixtures, clean-compile
properties on the paper workloads, a corrupting scheduler and the CLI."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    RuntimeModel,
    check_book,
    verify_schedule,
)
from repro.cli import main
from repro.core.access import DataAccess
from repro.core.compiler import CompileResult, CompilerOptions, compile_schedule
from repro.experiments import Runner, default_config
from repro.ir.affine import var
from repro.ir.dependence import AffineDependenceAnalyzer
from repro.ir.profiling import trace_program
from repro.ir.program import Compute, FileDecl, Loop, Program, Read, Write
from repro.storage.striping import StripedFile, StripeMap

BLOCK = 64 * 1024
PAPER_WORKLOADS = ["hf", "sar", "astro", "apsi", "madbench2", "wupwise"]


def cross_program() -> Program:
    """Two SPMD processes; each reads what the *other* wrote.

    Process ``p`` writes blocks ``[4p, 4p+4)`` in slots 0–3, then reads
    blocks ``[4(1−p), 4(1−p)+4)`` in slots 4–7, so every read has a
    cross-process producer at slot ``j`` and slack window ``[j+1, 4+j]``.
    Fully affine: the polyhedral analyzer applies.
    """
    p, i, j = var("p"), var("i"), var("j")
    files = {"f": FileDecl("f", 8, BLOCK)}
    body = [
        Loop("i", 0, 3, body=[Write("f", p * 4 + i), Compute(1.0)]),
        Loop("j", 0, 3, body=[Read("f", (1 - p) * 4 + j), Compute(1.0)]),
    ]
    return Program("cross", 2, files, body)


def compile_fixture(**options) -> CompileResult:
    program = cross_program()
    trace = trace_program(program)
    stripe_map = StripeMap(BLOCK, 2)
    files = {n: StripedFile(n, d.size_bytes) for n, d in program.files.items()}
    return compile_schedule(
        program, stripe_map, files, CompilerOptions(**options), trace=trace
    )


def first_access(result: CompileResult, process: int = 0) -> DataAccess:
    return min(
        (a for a in result.book.all_accesses() if a.process == process),
        key=lambda a: a.aid,
    )


class TestCleanSchedules:
    def test_fixture_verifies_clean(self):
        result = compile_fixture()
        report = verify_schedule(result.trace, result.book)
        assert not report.has_errors, report.render_text()

    def test_oracle_matches_profiling_path(self):
        """The verifier checks producers against the trace's writer
        table; the polyhedral analyzer must give the same table."""
        program = cross_program()
        assert AffineDependenceAnalyzer(program).last_writer_table() == (
            trace_program(program).last_writer_table()
        )


class TestBadScheduleFixtures:
    """Each seeded corruption must be rejected with its stable code."""

    def test_slack_violation(self):
        result = compile_fixture()
        access = first_access(result)
        access.scheduled_slot = access.end + 2  # outside window, in horizon
        report = verify_schedule(result.trace, result.book)
        assert "SCHED001" in report.codes()
        assert report.has_errors

    def test_horizon_overrun(self):
        result = compile_fixture()
        access = first_access(result)
        access.scheduled_slot = result.trace.n_slots + 5
        report = verify_schedule(result.trace, result.book)
        assert "SCHED002" in report.codes()

    def test_duplicate_access(self):
        result = compile_fixture()
        access = first_access(result)
        result.book.table_for(0).add(access)
        report = verify_schedule(result.trace, result.book)
        assert "SCHED003" in report.codes()

    def test_unscheduled_access(self):
        result = compile_fixture()
        table = result.book.table_for(0)
        slot = min(table.by_slot)
        table.by_slot[slot].pop(0)
        report = verify_schedule(result.trace, result.book)
        assert "SCHED004" in report.codes()

    def test_wrong_process_table(self):
        result = compile_fixture()
        table = result.book.table_for(0)
        slot = min(table.by_slot)
        access = table.by_slot[slot].pop(0)
        result.book.table_for(1).by_slot.setdefault(slot, []).append(access)
        report = verify_schedule(result.trace, result.book)
        assert "SCHED005" in report.codes()

    def test_stale_producer(self):
        result = compile_fixture()
        access = first_access(result)
        assert access.producer is not None
        access.producer = None  # forget the cross-process dependence
        report = verify_schedule(result.trace, result.book)
        assert "SCHED006" in report.codes()

    def test_producer_after_consumer_hazard(self):
        result = compile_fixture()
        # The read of block (1-p)*4+2 consumes at slot 6, produced at
        # slot 2 by the other process.  Forge the window so the prefetch
        # lands *at* the producing write without tripping SCHED001/006.
        access = next(
            a for a in result.book.all_accesses()
            if a.process == 0 and a.original_slot == 6
        )
        assert access.producer == (2, 1)
        access.begin = 0
        access.scheduled_slot = 2
        report = verify_schedule(result.trace, result.book)
        assert "SCHED007" in report.codes()
        assert "SCHED001" not in report.codes()
        assert "SCHED006" not in report.codes()

    def test_phantom_access(self):
        result = compile_fixture()
        ghost = DataAccess(
            aid=9_999, process=0, original_slot=3, begin=0, end=3,
            signature=1, file="f", block=0, scheduled_slot=1,
        )
        result.book.table_for(0).by_slot.setdefault(1, []).append(ghost)
        report = verify_schedule(result.trace, result.book)
        assert "SCHED008" in report.codes()

    def test_check_book_directly_returns_typed_diagnostics(self):
        result = compile_fixture()
        access = first_access(result)
        access.scheduled_slot = access.end + 2
        diags = check_book(result.trace, result.book)
        (diag,) = [d for d in diags if d.code == "SCHED001"]
        assert diag.anchor.aid == access.aid
        assert diag.anchor.process == access.process


class TestPaperWorkloadsVerifyClean:
    """Acceptance: every stock-compiled paper workload verifies clean."""

    @pytest.mark.parametrize("name", PAPER_WORKLOADS)
    def test_stock_schedule_is_clean(self, name):
        cfg = default_config(scale=0.05).scaled(n_clients=8)
        runner = Runner(cfg)
        compiled = runner.compilation(name)
        report = verify_schedule(
            compiled.trace,
            compiled.book,
            runtime=RuntimeModel.from_session_config(cfg.session_config()),
        )
        assert not report.has_errors, report.render_text(title=name)


class TestCompilerProperty:
    """Property: any knob combination yields a verifiably clean book."""

    @settings(max_examples=25, deadline=None)
    @given(
        delta=st.integers(1, 40),
        theta=st.one_of(st.none(), st.integers(1, 8)),
        extended=st.booleans(),
        seed=st.integers(0, 7),
        tie_break=st.sampled_from(["random", "first", "latest"]),
        order=st.sampled_from(["shortest", "longest", "program"]),
    )
    def test_any_knobs_verify_clean(
        self, delta, theta, extended, seed, tie_break, order
    ):
        result = compile_fixture(
            delta=delta, theta=theta, extended=extended, seed=seed,
            tie_break=tie_break, order=order,
        )
        report = verify_schedule(result.trace, result.book)
        assert not report.has_errors, report.render_text()


class TestCorruptingScheduler:
    def test_verifier_catches_corrupting_scheduler(self, monkeypatch):
        """A scheduler that moves an access out of its slack window
        compiles, and the verifier flags the book it emits."""
        from repro.core import compiler as compiler_mod

        real_factory = compiler_mod.make_scheduler

        class CorruptingScheduler:
            def __init__(self, inner):
                self.inner = inner

            def schedule(self, accesses):
                state = self.inner.schedule(accesses)
                accesses[0].scheduled_slot = accesses[0].end + 1_000
                return state

        monkeypatch.setattr(
            compiler_mod, "make_scheduler",
            lambda **kw: CorruptingScheduler(real_factory(**kw)),
        )
        result = compile_fixture()
        report = verify_schedule(result.trace, result.book, include_lint=False)
        assert report.has_errors
        assert "SCHED001" in report.codes()


class TestVerifyCLI:
    def test_verify_single_app_clean(self):
        out = io.StringIO()
        rc = main(["verify", "--app", "hf", "--scale", "0.05"], out=out)
        assert rc == 0
        assert "verify hf" in out.getvalue()
        assert "0 error(s)" in out.getvalue()

    def test_verify_json(self):
        out = io.StringIO()
        rc = main(["verify", "--app", "madbench2", "--scale", "0.05",
                   "--json"], out=out)
        assert rc == 0
        payload = json.loads(out.getvalue())
        assert payload["clean"] is True

    def test_lint_cli(self):
        out = io.StringIO()
        rc = main(["lint", "--app", "hf", "--scale", "0.05"], out=out)
        assert rc == 0
        assert "LINT001" in out.getvalue()
