"""Figure 14(b) — performance improvement of the scheme vs θ.

Paper shape: θ exists to protect performance — the scheme improves (or
at worst barely affects) execution time relative to the bare history
policy at every θ, and tight θ keeps the improvement from eroding.
"""

from conftest import sweep_apps
from repro.experiments import fig14b


def test_fig14b_sweep_theta_perf(runner):
    apps = sweep_apps()
    values = (2, 4, 8)
    result = fig14b(runner, values=values, apps=apps)
    print("\n" + result.text)
    improvements = result.data
    # The scheme never makes the policy-managed run meaningfully slower.
    assert all(v > -0.03 for v in improvements.values())
    # Some θ shows a genuine improvement (prefetching hides latency).
    assert max(improvements.values()) > 0.0
