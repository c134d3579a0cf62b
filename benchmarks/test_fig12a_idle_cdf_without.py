"""Figure 12(a) — CDF of disk idle-period lengths without the scheme.

Paper shape: short idle periods dominate by count (on average ~86% of
periods are ≤100 ms in the paper; hf and madbench2 are the most
short-idle-heavy apps), and almost everything is ≤5 s by count with a
thin long tail.
"""

from repro.experiments import APPS


def test_fig12a_idle_cdf_without(render):
    result = render("fig12a")
    print("\n" + result.text)
    data = result.data
    for app in APPS:
        fractions = list(data[app].values())
        assert fractions == sorted(fractions), f"{app}: CDF not monotone"
    # Sub-second idles dominate by count on the short-idle apps.
    assert data["hf"][1_000] > 0.5
    assert data["madbench2"][1_000] > 0.5
    # A long tail exists: not everything is sub-second everywhere.
    avg_1s = sum(data[a][1_000] for a in APPS) / len(APPS)
    assert avg_1s < 0.98
    # The bulk of periods sit at or below tens of seconds.
    avg_50s = sum(data[a][50_000] for a in APPS) / len(APPS)
    assert avg_50s > 0.85
