"""Tests for the observability layer (repro.obs)."""

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import (
    NULL_OBS,
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    JsonlTracer,
    MetricsRegistry,
    NullTracer,
    Observability,
    merge_snapshots,
    read_snapshot,
    read_trace,
    write_snapshot,
)


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_gauge_set_and_max_update(self):
        g = Gauge("x")
        g.set(3.0)
        g.max_update(1.0)
        assert g.value == 3.0
        g.max_update(7.0)
        assert g.value == 7.0

    def test_histogram_buckets_inclusive_upper_bound(self):
        h = Histogram("x", (1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 10.0, 11.0):
            h.observe(v)
        # <=1, <=10, overflow
        assert h.counts == [2, 2, 1]
        assert h.count == 5
        assert h.mean == pytest.approx(27.5 / 5)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", ())
        with pytest.raises(ValueError):
            Histogram("x", (2.0, 1.0))

    def test_histogram_cumulative_fractions(self):
        h = Histogram("x", (1.0, 2.0))
        for v in (0.5, 1.5, 3.0, 4.0):
            h.observe(v)
        assert h.cumulative_fractions() == [0.25, 0.5]


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_histogram_bounds_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", (1.0, 3.0))

    def test_snapshot_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", (1.0,)).observe(0.5)
        path = tmp_path / "snap.json"
        write_snapshot(reg.snapshot(), path)
        snap = read_snapshot(path)
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["counts"] == [1, 0]

    def test_read_snapshot_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 999}')
        with pytest.raises(ValueError):
            read_snapshot(path)


def _permuted_snapshots():
    """A list of snapshots and a permutation of it.  Floats are finite:
    NaN (and so inf + -inf) never compares equal to itself."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    snapshot = st.builds(
        lambda c, g, counts, total: {
            "schema": 1,
            "counters": {"c": c},
            "gauges": {"g": g},
            "histograms": {
                "h": {
                    "bounds": [1.0, 2.0],
                    "counts": counts,
                    "total": total,
                    "count": sum(counts),
                }
            },
        },
        st.integers(0, 10**6),
        finite,
        st.lists(st.integers(0, 100), min_size=3, max_size=3),
        finite,
    )
    return st.lists(snapshot, min_size=1, max_size=6).flatmap(
        lambda snaps: st.tuples(st.just(snaps), st.permutations(snaps))
    )


def _totals_only(*totals):
    """One single-observation histogram snapshot per total."""
    return [
        {
            "schema": 1,
            "histograms": {
                "h": {"bounds": [1.0], "counts": [1, 0], "total": t,
                      "count": 1}
            },
        }
        for t in totals
    ]


class TestMerge:
    def _snap(self, c, g, h_counts, h_total, h_count):
        return {
            "schema": 1,
            "counters": {"c": c},
            "gauges": {"g": g},
            "histograms": {
                "h": {
                    "bounds": [1.0, 2.0],
                    "counts": h_counts,
                    "total": h_total,
                    "count": h_count,
                }
            },
        }

    def test_counters_add_gauges_max_histograms_add(self):
        a = self._snap(2, 5.0, [1, 0, 0], 0.5, 1)
        b = self._snap(3, 4.0, [0, 1, 1], 4.5, 2)
        merged = merge_snapshots([a, b])
        assert merged["counters"]["c"] == 5
        assert merged["gauges"]["g"] == 5.0
        assert merged["histograms"]["h"]["counts"] == [1, 1, 1]
        assert merged["histograms"]["h"]["count"] == 3
        assert merged["merged_runs"] == 2

    def test_merge_is_order_independent(self):
        snaps = [
            self._snap(i, float(i), [i, 0, 1], float(i), i + 1)
            for i in range(5)
        ]
        forward = merge_snapshots(snaps)
        backward = merge_snapshots(reversed(snaps))
        assert forward == backward

    @settings(max_examples=300, deadline=None)
    @given(_permuted_snapshots())
    @example((_totals_only(0.1, 0.2, 0.3), _totals_only(0.3, 0.2, 0.1)))
    def test_merge_equals_under_any_permutation(self, pair):
        snaps, permuted = pair
        merged = merge_snapshots(snaps)
        assert merge_snapshots(permuted) == merged
        # Byte for byte, as written: a gauge of 0.0 or -0.0 compares
        # equal but renders differently.
        assert json.dumps(merge_snapshots(permuted)) == json.dumps(merged)

    def test_merge_rejects_bounds_mismatch(self):
        a = self._snap(1, 1.0, [1, 0, 0], 0.5, 1)
        b = self._snap(1, 1.0, [1, 0, 0], 0.5, 1)
        b["histograms"]["h"]["bounds"] = [9.0, 99.0]
        with pytest.raises(ValueError):
            merge_snapshots([a, b])

    def test_merge_rejects_foreign_schema(self):
        with pytest.raises(ValueError):
            merge_snapshots([{"schema": 999}])

    def test_merged_runs_accumulates_through_remerge(self):
        a = merge_snapshots([self._snap(1, 1.0, [1, 0, 0], 0.5, 1)] * 2)
        b = self._snap(1, 1.0, [1, 0, 0], 0.5, 1)
        assert merge_snapshots([a, b])["merged_runs"] == 3


class _FakeClock:
    def __init__(self):
        self.now = 0.0


class TestJsonlTracer:
    def test_records_phases_context_and_clock(self):
        buf = io.StringIO()
        clock = _FakeClock()
        tracer = JsonlTracer(buf)
        tracer.bind_clock(clock)
        tracer.set_context(run="w/p")
        tracer.begin("io.read", rid=1)
        clock.now = 2.5
        tracer.end("io.read", rid=1)
        tracer.event("access.consumed", aid=7)
        tracer.flush()
        records = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert [r["ph"] for r in records] == ["B", "E", "I"]
        assert records[0] == {
            "t": 0.0, "ph": "B", "ev": "io.read", "run": "w/p", "rid": 1,
        }
        assert records[1]["t"] == 2.5
        assert all(r["run"] == "w/p" for r in records)
        assert tracer.records_written == 3

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.event("a", x=1)
            tracer.event("b")
        records = list(read_trace(path))
        assert [r["ev"] for r in records] == ["a", "b"]
        assert records[0]["x"] == 1

    def test_detail_defaults_off(self):
        assert JsonlTracer(io.StringIO()).detail is False
        assert JsonlTracer(io.StringIO(), detail=True).detail is True

    def test_records_buffer_until_flush(self):
        buf = io.StringIO()
        tracer = JsonlTracer(buf)
        tracer.event("a")
        assert buf.getvalue() == ""  # chunk-buffered
        tracer.flush()
        assert json.loads(buf.getvalue())["ev"] == "a"

    def test_string_fields_are_escaped(self):
        buf = io.StringIO()
        tracer = JsonlTracer(buf)
        tracer.set_context(run='we"ird\\label')
        tracer.event("a", note="tab\there")
        tracer.flush()
        record = json.loads(buf.getvalue())
        assert record["run"] == 'we"ird\\label'
        assert record["note"] == "tab\there"

    def test_write_after_close_is_noop(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = JsonlTracer(path)
        tracer.event("a")
        tracer.close()
        tracer.event("b")
        assert len(list(read_trace(path))) == 1


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NullTracer.enabled is False
        assert NullTracer.detail is False
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.detail is False
        # Every method is a safe no-op.
        NULL_TRACER.bind_clock(object())
        NULL_TRACER.set_context(run="x")
        NULL_TRACER.begin("a")
        NULL_TRACER.end("a")
        NULL_TRACER.event("a")
        NULL_TRACER.flush()
        NULL_TRACER.close()

    def test_observability_defaults_to_null(self):
        obs = Observability()
        assert obs.tracer is NULL_TRACER
        assert obs.metrics is None
        assert not obs.enabled
        assert not NULL_OBS.enabled

    def test_observability_enabled_by_either_channel(self):
        assert Observability(metrics=MetricsRegistry()).enabled
        assert Observability(tracer=JsonlTracer(io.StringIO())).enabled


class TestReportRendering:
    def test_render_groups_and_filters(self):
        from repro.obs.report import render_snapshot, render_snapshot_json

        reg = MetricsRegistry()
        reg.counter("drive.d0.requests").inc(4)
        reg.gauge("buffer.peak_used_blocks").set(9)
        reg.histogram("net.link0.queue_delay_s", (0.1,)).observe(0.05)
        snap = reg.snapshot()
        text = render_snapshot(snap)
        assert "[drive]" in text and "[buffer]" in text
        assert "drive.d0.requests" in text
        filtered = render_snapshot(snap, pattern="buffer.*")
        assert "drive.d0.requests" not in filtered
        as_json = json.loads(
            render_snapshot_json(snap, pattern="drive.*")
        )
        assert as_json["counters"] == {"drive.d0.requests": 4}
        assert as_json["gauges"] == {}
