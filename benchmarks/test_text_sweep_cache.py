"""§V-D (text) — storage-cache capacity sensitivity.

Paper shape: shrinking the cache from 64 MB to 32 MB *increases* the
scheme's relative benefit (≈ +4.3% in the paper) and growing it to
256 MB decreases the benefit (≈ −3.7%): a big cache absorbs disk activity
by itself, leaving less for scheduling to win.
"""

import os

from repro.experiments import APPS


def test_cache_sensitivity(render):
    # The sweep must include the cache-sensitive workload: madbench2's
    # out-of-core scans are what a bigger storage cache absorbs.
    apps = APPS if os.environ.get("REPRO_FULL_SWEEPS") else (
        "madbench2", "sar", "wupwise"
    )
    result = render("cache", sizes_mb=(32, 64, 256), apps=apps)
    print("\n" + result.text)
    benefits = result.data
    assert all(b > 0 for b in benefits.values())
    # Benefit shrinks as the cache grows (paper §V-D: −3.7% at 256 MB)
    # and the small cache leaves the most room for software scheduling.
    assert benefits[32] >= benefits[256]
    assert benefits[64] > benefits[256]
