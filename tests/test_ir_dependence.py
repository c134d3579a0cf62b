"""Tests for the polyhedral-lite dependence analyzer."""

import pytest

from repro.ir import (
    AffineDependenceAnalyzer,
    Compute,
    FileDecl,
    Loop,
    Program,
    Read,
    Write,
    solve_affine_equal,
    trace_program,
    var,
)
from repro.experiments import default_config
from repro.workloads import all_workloads, get_workload


class TestSolveAffineEqual:
    def test_unique_solution(self):
        assert solve_affine_equal(2, 1, 7, 0, 10) == [3]

    def test_no_solution_gcd(self):
        assert solve_affine_equal(2, 0, 7, 0, 10) == []

    def test_out_of_bounds(self):
        assert solve_affine_equal(1, 0, 42, 0, 10) == []

    def test_zero_coefficient_matches_all_or_none(self):
        assert solve_affine_equal(0, 5, 5, 0, 3) == [0, 1, 2, 3]
        assert solve_affine_equal(0, 5, 6, 0, 3) == []

    def test_step_filtering(self):
        # i in {0, 2, 4, ...}: i = 3 is not reachable.
        assert solve_affine_equal(1, 0, 3, 0, 10, step=2) == []
        assert solve_affine_equal(1, 0, 4, 0, 10, step=2) == [4]

    def test_bad_step(self):
        with pytest.raises(ValueError):
            solve_affine_equal(1, 0, 1, 0, 10, step=0)

    def test_negative_coefficient(self):
        assert solve_affine_equal(-2, 10, 4, 0, 10) == [3]


def producer_consumer(n_processes=2, steps=4):
    files = {"d": FileDecl("d", n_processes * steps + n_processes, 1024)}
    p, t = var("p"), var("t")
    body = [
        Loop("t", 0, steps - 1, body=[
            Write("d", t * n_processes + p),
            Compute(1.0),
            Read("d", t * n_processes + p),
            Compute(1.0),
        ]),
    ]
    return Program("pc", n_processes, files, body)


class TestAnalyzer:
    def test_rejects_non_affine(self):
        files = {"f": FileDecl("f", 4, 1024)}
        prog = Program("na", 1, files, [Read("f", lambda env: 0)])
        with pytest.raises(ValueError):
            AffineDependenceAnalyzer(prog)

    def test_agrees_with_profiling_path(self):
        prog = producer_consumer()
        analyzer = AffineDependenceAnalyzer(prog)
        assert analyzer.last_writer_table() == trace_program(prog).last_writer_table()

    @pytest.mark.parametrize("scale", [0.01, 0.05])
    @pytest.mark.parametrize(
        "name", [w.name for w in all_workloads() if w.affine]
    )
    def test_agrees_on_registered_workloads(self, name, scale):
        """The schedule verifier reads the profiling trace's writer table;
        on every affine workload the analyzer must produce the same one."""
        prog = get_workload(name).build(
            n_processes=default_config().n_clients, scale=scale
        )
        assert prog.is_affine
        assert (
            AffineDependenceAnalyzer(prog).last_writer_table()
            == trace_program(prog).last_writer_table()
        )

    def test_last_writer_before(self):
        prog = producer_consumer(n_processes=1, steps=3)
        analyzer = AffineDependenceAnalyzer(prog)
        # Block 1 written at step 1 (slot 2 with two computes per step).
        producer = analyzer.last_writer_before("d", 1, slot=5)
        assert producer == (2, 0)

    def test_no_writer_for_input_block(self):
        prog = producer_consumer(n_processes=1, steps=2)
        analyzer = AffineDependenceAnalyzer(prog)
        assert analyzer.last_writer_before("d", 99, slot=100) is None

    def test_writer_at_or_after_slot_excluded(self):
        prog = producer_consumer(n_processes=1, steps=2)
        analyzer = AffineDependenceAnalyzer(prog)
        # Block 0 is written at slot 0; a reader at slot 0 has no writer
        # strictly before it.
        assert analyzer.last_writer_before("d", 0, slot=0) is None

    def test_writers_of_block_lists_all(self):
        files = {"f": FileDecl("f", 2, 1024)}
        body = [Loop("i", 0, 2, body=[Write("f", 0), Compute(1.0)])]
        prog = Program("w", 1, files, body)
        analyzer = AffineDependenceAnalyzer(prog)
        assert len(analyzer.writers_of_block("f", 0)) == 3

    def test_cross_process_dependence_found(self):
        # Process p writes block p; process p reads block p+1 (its right
        # neighbour's block) one step later.
        files = {"f": FileDecl("f", 4, 1024)}
        p = var("p")
        body = [
            Write("f", p),
            Compute(1.0),
            Read("f", p + 1),
            Compute(1.0),
        ]
        prog = Program("x", 3, files, body)
        analyzer = AffineDependenceAnalyzer(prog)
        producer = analyzer.last_writer_before("f", 1, slot=1)
        assert producer == (0, 1)  # written by process 1 at slot 0
