"""Figure 13(a) — performance degradation without the scheme.

Paper shape: the simple strategy degrades performance the most (10.4% on
average; every spin-up lands on the critical path), the predictive
policies stay low, and multi-speed disks barely hurt.
"""

from repro.experiments import APPS, POLICIES


def averages(data):
    return {
        policy: sum(data[a][policy] for a in APPS) / len(APPS)
        for policy in POLICIES
    }


def test_fig13a_perf_without(render):
    result = render("fig13a")
    print("\n" + result.text)
    avg = averages(result.data)
    print("average degradation:", {p: f"{v:.1%}" for p, v in avg.items()})
    # Simple suffers the worst degradation of the four (paper Fig 13(a)).
    assert avg["simple"] == max(avg.values())
    # Multi-speed policies stay in low single digits.
    assert avg["history"] < 0.05
    assert avg["staggered"] < 0.05
    # Nothing goes pathological.
    assert all(v < 0.30 for v in avg.values())
