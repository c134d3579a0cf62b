"""Figure 12(b) — CDF of disk idle-period lengths with the scheme.

Paper shape: the distribution shifts toward longer periods — the
fraction of short idle periods drops relative to Figure 12(a) (the paper
quotes ≤500 ms coverage dropping from ~90.4% to ~75.7%).
"""

from repro.experiments import APPS, fig12a, fig12b


def test_fig12b_idle_cdf_with(runner):
    without = fig12a(runner)
    result = fig12b(runner)
    print("\n" + result.text)
    for app in APPS:
        fractions = list(result.data[app].values())
        assert fractions == sorted(fractions), f"{app}: CDF not monotone"
    # The scheme's consolidation: averaged over the suite, the share of
    # short idle periods (≤500 ms) decreases.
    avg_without = sum(without.data[a][500] for a in APPS) / len(APPS)
    avg_with = sum(result.data[a][500] for a in APPS) / len(APPS)
    print(f"\n≤500ms share: {avg_without:.1%} -> {avg_with:.1%}")
    assert avg_with < avg_without
