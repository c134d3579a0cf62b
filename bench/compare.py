"""Compare two sets of benchmark records, one row per (workload, metric).

    python3 bench/compare.py A/ B/

``A`` holds the parent's result records (``bench/run.py --out A``), ``B``
the change's.  For each end-to-end metric of ``BENCHMARK.json`` the row
shows each side's median and quartiles, how many paired runs each side
won (runs pair up in seed order; ties count for neither) and a verdict:

* ``unresolved`` — either side's interquartile spread, as a share of its
  median, is wider than the metric's bound, and not every run of B
  reads better than every run of A;
* ``improved`` — B wins at least nine tenths of the pairs and the
  medians differ, in B's favour, by more than A's interquartile range;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unchanged`` — otherwise.

Per-layer metrics (records of ``--trace 1`` runs) have no bound: their
rows say whether every value on both sides is ``identical`` or ``moved``.
Exits 1 when any pair is regressed or unresolved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from common import quartiles, relative_spread

ROOT = Path(__file__).resolve().parent.parent


def load_records(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """Records by ``(workload, trace)``, each list in seed order."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        groups.setdefault(
            (record["workload"], record["trace"]), []
        ).append(record)
    for records in groups.values():
        records.sort(key=lambda r: r["seed"])
    return groups


def judge(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Verdict of change ``b`` against parent ``a`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(old: float, new: float) -> float:
        """Positive when ``new`` reads better than ``old``."""
        return sign * (old - new)

    qa, qb = quartiles(a), quartiles(b)
    pairs = list(zip(a, b))
    wins_b = sum(1 for x, y in pairs if gain(x, y) > 0)
    wins_a = sum(1 for x, y in pairs if gain(x, y) < 0)
    spread = max(relative_spread(a), relative_spread(b))
    every_run_better = all(gain(x, y) > 0 for x in a for y in b)
    worse_by = -gain(qa[1], qb[1]) / abs(qa[1]) if qa[1] else 0.0
    if spread > bound and not every_run_better:
        verdict = "unresolved"
    elif (
        pairs
        and wins_b >= 0.9 * len(pairs)
        and gain(qa[1], qb[1]) > qa[2] - qa[0]
    ):
        verdict = "improved"
    elif worse_by > bound:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    return {
        "a": qa, "b": qb, "wins_a": wins_a, "wins_b": wins_b,
        "pairs": len(pairs), "spread": spread, "worse_by": worse_by,
        "verdict": verdict,
    }


def values(records: list[dict], metric: str) -> list[float]:
    out = []
    for record in records:
        value = record["result"]["metrics"].get(metric, {}).get("value")
        if value is not None:
            out.append(value)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent's result records")
    parser.add_argument("b", type=Path, help="change's result records")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a_groups, b_groups = load_records(args.a), load_records(args.b)

    rows, bad = [], 0
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = a_groups.get((workload, 0), []), b_groups.get((workload, 0), [])
        for metric in spec["end_to_end"]:
            va, vb = values(a, metric["name"]), values(b, metric["name"])
            if not va or not vb:
                continue
            j = judge(va, vb, metric["better"], metric["bound"])
            bad += j["verdict"] in ("regressed", "unresolved")
            rows.append((
                workload, metric["name"],
                f"{j['a'][1]:.4g} [{j['a'][0]:.4g}, {j['a'][2]:.4g}]",
                f"{j['b'][1]:.4g} [{j['b'][0]:.4g}, {j['b'][2]:.4g}]",
                f"{j['wins_a']}/{j['pairs']}", f"{j['wins_b']}/{j['pairs']}",
                f"{j['spread']:.3f}/{metric['bound']:g}", j["verdict"],
            ))
        a, b = a_groups.get((workload, 1), []), b_groups.get((workload, 1), [])
        for metric in spec["per_layer"]:
            va, vb = values(a, metric["name"]), values(b, metric["name"])
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            rows.append((
                workload, metric["name"], f"{qa[1]:.4g}", f"{qb[1]:.4g}",
                "", "", "",
                "identical" if len(set(va + vb)) == 1 else "moved",
            ))

    header = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
              "A wins", "B wins", "spread/bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
