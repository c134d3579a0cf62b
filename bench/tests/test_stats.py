"""Percentile choice and the spread the benchmark's bounds apply to."""

import statistics

import pytest

from common import (
    MIN_BEYOND,
    TAIL_LADDER,
    beyond,
    latency_summary,
    percentile,
    quartiles,
    relative_spread,
    tail_percentile,
)


@pytest.mark.parametrize("n, pct", [
    (3000, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
    (100, 90.0), (99, 80.0), (50, 80.0), (49, 75.0), (40, 75.0),
    (39, 50.0), (20, 50.0), (19, None), (1, None),
])
def test_tail_percentile_examples(n, pct):
    assert tail_percentile(n) == pct


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for n in range(1, 3001):
        pct = tail_percentile(n)
        higher = TAIL_LADDER if pct is None else TAIL_LADDER[
            :TAIL_LADDER.index(pct)]
        if pct is not None:
            assert beyond(n, pct) >= MIN_BEYOND
        assert all(beyond(n, p) < MIN_BEYOND for p in higher)


def test_beyond_counts_samples_above_the_nearest_rank():
    values = list(range(1, 101))
    for pct in TAIL_LADDER:
        cut = percentile(values, pct)
        assert beyond(100, pct) == sum(1 for v in values if v > cut)


def test_latency_summary_reports_supported_tail():
    summary = latency_summary([i / 1000 for i in range(1, 101)])
    assert summary["n"] == 100
    assert summary["p50_ms"] == pytest.approx(50.0)
    assert (summary["tail_pct"], summary["tail_ms"]) == (90.0, pytest.approx(90.0))
    assert summary["tail_supported"]
    small = latency_summary([0.001] * 5)
    assert not small["tail_supported"] and small["tail_pct"] == 50.0


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / q2)
