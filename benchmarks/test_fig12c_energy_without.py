"""Figure 12(c) — normalized energy of the four policies, no scheme.

Paper shape: without software help the savings are modest and ordered
history > staggered > prediction > simple (15.6% / 9.8% / 6.3% / 4.7%
average savings in the paper); multi-speed beats spin-down.
"""

from repro.experiments import APPS, POLICIES


def averages(data):
    return {
        policy: sum(data[a][policy] for a in APPS) / len(APPS)
        for policy in POLICIES
    }


def test_fig12c_energy_without(render):
    result = render("fig12c")
    print("\n" + result.text)
    avg = averages(result.data)
    savings = {p: 1 - v for p, v in avg.items()}
    print("average savings:", {p: f"{s:.1%}" for p, s in savings.items()})
    # Multi-speed beats spin-down (the paper's §II motivation).
    assert savings["history"] > savings["prediction"]
    assert savings["history"] > savings["simple"]
    assert savings["staggered"] > savings["simple"]
    # History-based is the best policy overall (paper Fig. 12(c)).
    assert savings["history"] == max(savings.values())
    # Spin-down savings are small without the scheme ("less than 5% on
    # average" for simple in the paper; small single digits here too).
    assert savings["simple"] < 0.10
