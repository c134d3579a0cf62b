"""Figure 12(d) — normalized energy of the four policies with the scheme.

Paper shape: the scheme roughly doubles every policy's savings
(5.5→11.8% class for the spin-down pair, 12.7→27.6% class for the
multi-speed pair), with every policy strictly better than without it.
"""

from repro.experiments import APPS, POLICIES, fig12c, fig12d


def averages(data):
    return {
        policy: sum(data[a][policy] for a in APPS) / len(APPS)
        for policy in POLICIES
    }


def test_fig12d_energy_with(runner):
    without = averages(fig12c(runner).data)
    result = fig12d(runner)
    print("\n" + result.text)
    avg = averages(result.data)
    for policy in POLICIES:
        save_without = 1 - without[policy]
        save_with = 1 - avg[policy]
        print(f"{policy:>10}: {save_without:6.1%} -> {save_with:6.1%}")
        # Every policy benefits from the scheme on average.
        assert save_with > save_without, policy
    # The spin-down policies' savings grow by well over the paper's ~2x.
    assert (1 - avg["simple"]) >= 2 * (1 - without["simple"])
    assert (1 - avg["prediction"]) >= 2 * (1 - without["prediction"])
