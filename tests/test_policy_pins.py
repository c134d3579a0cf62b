"""Byte-level pins of every registered policy's results.

``bench/golden.json`` pins the default scheme and the four paper
policies only.  These pins cover all eight registered policies, scheme
off and on, on one small workload: any change to a policy's decisions
(a dwell, a wake-up time, the order timers are armed in) moves the
SHA-256 of its canonical ``RunResult`` document.

Scheme-on results go through the compiler's slot scorer, which sums
through the OpenBLAS dot kernel numpy picks for the CPU (DESIGN §10).
At this size the pins hold under the default kernel and under
``OPENBLAS_CORETYPE=Haswell``, ``Sandybridge`` and ``Prescott``; CI
re-runs this module under ``Haswell`` so a host whose kernel does move
them shows up as that step failing.
"""

import hashlib

import pytest

from repro.exec.serialize import canonical_dumps, run_result_to_dict
from repro.experiments import ExperimentConfig, Runner
from repro.power import POLICY_NAMES

#: One Runner for the module: the trace and the compilation are built
#: once and shared by all sixteen points.
RUNNER = Runner(ExperimentConfig(workload_scale=0.02))

#: sha256(canonical_dumps(run_result_to_dict(run("sar", policy, scheme)))).
PINS = {
    ("default", False):
        "71daa0ff5ea788d21d98d6a74b3b70e0ac231d252cae39c78a6a44037c6ddb05",
    ("default", True):
        "6b023a6d446e42cc54fd998f4801db3735418fcbd9ae492f1f881ed3b61c9ea4",
    ("simple", False):
        "269f060a42091de349040823fb6a492c1c61c1c7f32b64c128cc88ed0f75903f",
    ("simple", True):
        "fa5618925cee79079b6bd6df28d49a39140d94d26b2949c0a9767a393f72bd91",
    ("prediction", False):
        "7b636ad4a1054ff56762de808b100ac23f0c8266aa0d36c485317fc9241e5aca",
    ("prediction", True):
        "20ff31cdaf392cd342fc93abfbaa433f084881c3e76f49b802f71f850a042ef7",
    ("history", False):
        "b21a66256fed5ea0e333aaf9d946e9e7ef5a189d7a6fbaf7ffcfd6ec388ab5c2",
    ("history", True):
        "cdb228a1a2c026d3c1edf307c1703c6c2d678b1be64e1a14c3354aab72f7391f",
    ("staggered", False):
        "ebd312c68a830009c9b6f95dc210e2ce07d8a13b3f7fe9598fba4916f696170b",
    ("staggered", True):
        "e4350f53d02e2e47be1980a88579b1e3409977228eb70e259ba93a4423dbf52a",
    ("forecast", False):
        "a44f26c45e973d3ebf263e9e64bde9a77eee3cd13a0a2d2def313182018f1d2b",
    ("forecast", True):
        "b11d2ac0aecaef21f113f31ee3fd719b7aa18d403e9aa6a3008dc570cc2cfab0",
    ("credit", False):
        "d4fd6db4d55d895c2bca41132d0515dbd1173d0a19f2bd66a479d813c219d202",
    ("credit", True):
        "0dc47670a10a2d7148d3d1e3b60ae73a1d262b72ecb871ef9eb4b792f722df0a",
    ("hybrid", False):
        "63b19a02b92e40ed35d12b2e1b621faf8a24feab846b6fbea1af6a3d41575b2d",
    ("hybrid", True):
        "d03144828e4a62c626d700acb1a74490ea320bb528fe1363f83273760a3ef346",
}


def test_pins_cover_every_registered_policy():
    assert set(PINS) == {(p, s) for p in POLICY_NAMES for s in (False, True)}


@pytest.mark.parametrize("scheme", [False, True], ids=["plain", "scheme"])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_result_document_is_pinned(policy, scheme):
    result = RUNNER.run("sar", policy, scheme)
    document = canonical_dumps(run_result_to_dict(result))
    digest = hashlib.sha256(document.encode()).hexdigest()
    assert digest == PINS[(policy, scheme)], (
        f"{policy} scheme={scheme}: result document changed"
    )
