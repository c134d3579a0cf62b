"""Figure 13(c) — the scheme's extra energy reduction over the
history-based policy as the number of I/O nodes varies.

Paper shape: the benefit exists at every node count and generally grows
with more I/O nodes (more nodes = more signature diversity to group by),
though the increments are modest because history-based already improves
with node count.
"""

from conftest import sweep_apps
from repro.experiments import fig13c


def test_fig13c_sweep_ionodes(runner):
    apps = sweep_apps()
    result = fig13c(runner, values=(2, 4, 8, 16), apps=apps)
    print("\n" + result.text)
    benefits = result.data
    # The scheme helps at the default shape and at larger node counts.
    assert benefits[8] > 0
    assert benefits[16] > 0
    # More nodes beat the smallest configuration.
    assert max(benefits[8], benefits[16]) > benefits[2]
