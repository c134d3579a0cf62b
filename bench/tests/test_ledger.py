"""Boundary spans and the cProfile layer fold."""

import cProfile
import json
import pstats
import threading
import time

import pytest

from ledger import Ledger, fold_profile, layer_of, rebind


@pytest.mark.parametrize("filename, layer", [
    ("/x/src/repro/sim/engine.py", "sim"),
    ("/x/src/repro/sim/trace.py", "disk"),  # StateTimeline is disk time
    ("/x/src/repro/disk/drive.py", "disk"),
    ("/x/src/repro/storage/raid.py", "storage"),
    ("/x/src/repro/cli.py", "repro"),
    ("/home/repro/src/repro/net/network.py", "net"),
    ("/usr/lib/python3.11/heapq.py", None),
    ("~", None),
    ("/x/bench/launch.py", None),
])
def test_layer_of_maps_module_to_layer(filename, layer):
    assert layer_of(filename) == layer


def test_builtin_time_is_charged_to_its_callers_in_proportion():
    disk = ("/s/repro/disk/drive.py", 1, "service")
    net = ("/s/repro/net/network.py", 1, "send")
    builtin = ("~", 0, "<built-in method builtins.sorted>")
    stats = {
        disk: (1, 1, 2.0, 5.0, {}),
        net: (1, 1, 1.0, 2.0, {}),
        # 3 s of sorted(): 2 s called from disk, 1 s from net.
        builtin: (2, 2, 3.0, 3.0, {disk: (1, 1, 2.0, 2.0),
                                   net: (1, 1, 1.0, 1.0)}),
    }
    folded = fold_profile(stats)
    assert folded == pytest.approx({"disk": 4.0, "net": 2.0})


def test_stdlib_chain_is_charged_to_the_first_repro_frame():
    runtime = ("/s/repro/runtime/client.py", 1, "run")
    stdlib = ("/usr/lib/python3.11/heapq.py", 1, "merge")
    builtin = ("~", 0, "<built-in method _heapq.heappush>")
    orphan = ("~", 0, "<built-in method time.sleep>")
    stats = {
        runtime: (1, 1, 1.0, 4.0, {}),
        stdlib: (1, 1, 1.0, 3.0, {runtime: (1, 1, 1.0, 3.0)}),
        builtin: (5, 5, 2.0, 2.0, {stdlib: (5, 5, 2.0, 2.0)}),
        orphan: (1, 1, 0.5, 0.5, {}),
    }
    assert fold_profile(stats) == pytest.approx({"runtime": 4.0, "other": 0.5})


def _fake_module(filename, source):
    namespace = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def test_fold_of_a_real_profile():
    disk = _fake_module("/x/src/repro/disk/fake.py", (
        "def spin(n):\n"
        "    return [sorted(range(50, 0, -1)) for _ in range(n)]\n"
    ))
    net = _fake_module("/x/src/repro/net/fake.py", (
        "import json\n"
        "def send(n):\n"
        "    return [json.dumps({'k': list(range(50))}) for _ in range(n)]\n"
    ))
    profile = cProfile.Profile()
    profile.enable()
    disk["spin"](3000)
    net["send"](3000)
    profile.disable()
    folded = fold_profile(pstats.Stats(profile).stats)
    # sorted() and json's encoder fold into their repro callers.
    assert set(folded) <= {"disk", "net", "other"}
    assert folded["disk"] > 0 and folded["net"] > 0
    assert folded.get("other", 0.0) < 0.05 * sum(folded.values())


def test_self_time_excludes_nested_spans():
    ledger = Ledger()
    inner = ledger.timed("inner", lambda: time.sleep(0.05))

    def body():
        time.sleep(0.02)
        inner()

    ledger.timed("outer", body)()
    spans = ledger.as_dict()["spans"]
    assert spans["outer"]["total_s"] >= 0.07
    assert spans["outer"]["self_s"] == pytest.approx(
        spans["outer"]["total_s"] - spans["inner"]["total_s"], abs=1e-9)
    assert spans["outer"]["self_s"] < 0.04


def test_spans_nest_per_thread_only():
    ledger = Ledger()
    hold = threading.Event()
    outer = ledger.timed("outer", lambda: hold.wait(5))
    worker = threading.Thread(target=outer)
    worker.start()
    ledger.timed("other", lambda: time.sleep(0.03))()
    hold.set()
    worker.join(5)
    assert not worker.is_alive()
    spans = ledger.as_dict()["spans"]
    # A span in another thread is not a child of "outer".
    assert spans["outer"]["self_s"] == spans["outer"]["total_s"]


def test_observer_counts_and_rebind_reaches_use_sites():
    import repro.exec.cache as cache
    import repro.exec.serialize as serialize

    ledger = Ledger()
    original = serialize.canonical_dumps
    timed = ledger.timed("exec.serialize", original,
                         lambda text: ledger.add("bytes", len(text)))
    try:
        assert rebind(original, timed) >= 2
        assert cache.canonical_dumps is timed  # imported by name there
        assert json.loads(cache.canonical_dumps({"a": 1})) == {"a": 1}
    finally:
        rebind(timed, original)
    assert cache.canonical_dumps is original
    doc = ledger.as_dict()
    assert doc["spans"]["exec.serialize"]["count"] == 1
    assert doc["counts"] == {"bytes": len('{"a":1}')}
