"""Figure 14(a) — the scheme's extra energy reduction over the
history-based policy as θ (per-node per-slot access bound) varies.

Paper shape: a larger θ allows denser grouping and therefore more energy
savings.
"""

from conftest import sweep_apps


def test_fig14a_sweep_theta_energy(render):
    apps = sweep_apps()
    values = (2, 4, 8)
    result = render("fig14a", values=values, apps=apps)
    print("\n" + result.text)
    benefits = result.data
    assert all(b > 0 for b in benefits.values())
    # Loosening θ from its tightest setting does not lose energy.
    assert benefits[8] >= benefits[2] - 0.02
