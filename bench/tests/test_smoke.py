"""End to end: every workload at tiny scale, and a checkout without code."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith("{")]


def test_smoke_pass_of_all_workloads_is_correct_and_quick(tmp_path):
    began = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "2",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - began
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60, elapsed
    lines = result_lines(proc.stdout)
    assert len(lines) == len(SPEC["workloads"])
    names = {m["name"] for m in SPEC["end_to_end"]}
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == names
        assert all(m["value"] > 0 for m in line["metrics"].values())
    records = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")]
    assert sorted(r["workload"] for r in records) == sorted(
        w["name"] for w in SPEC["workloads"])
    for record in records:
        assert {"nproc", "python", "cpu_model", "loadavg", "seed"} <= set(
            record["host"])
    # Scratch caches, WALs and logs are gone.
    assert not [p for p in tmp_path.iterdir() if p.is_dir()]


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not result_lines(proc.stdout)
