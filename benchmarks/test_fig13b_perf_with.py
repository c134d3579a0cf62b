"""Figure 13(b) — performance degradation with the scheme.

Paper shape: the scheme is beneficial for performance as well — the
simple strategy's average degradation drops (10.4% → 6.9% in the paper),
and every policy's degradation is no worse than without the scheme.
"""

from repro.experiments import APPS, POLICIES, fig13a, fig13b


def averages(data):
    return {
        policy: sum(data[a][policy] for a in APPS) / len(APPS)
        for policy in POLICIES
    }


def test_fig13b_perf_with(runner):
    without = averages(fig13a(runner).data)
    result = fig13b(runner)
    print("\n" + result.text)
    avg = averages(result.data)
    for policy in POLICIES:
        print(f"{policy:>10}: {without[policy]:6.1%} -> {avg[policy]:6.1%}")
    # The headline: the scheme reduces the simple policy's degradation.
    assert avg["simple"] < without["simple"]
    # And no policy's average degradation grows materially.
    for policy in POLICIES:
        assert avg[policy] <= without[policy] + 0.02, policy
