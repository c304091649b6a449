"""Compare two results of ``perf/run.py --out``: one row per (workload, metric).

``python3 perf/compare.py A.json B.json`` reads B against A and prints a
verdict for every end-to-end metric of every workload:

``same``        within the metric's regression bound;
``better`` / ``worse``   beyond both the bound and the runs' own noise;
``unresolved``  the runs' noise (spread across the slices of the timed
                phase) is wider than the bound, and the difference sits
                inside it — not evidence of "unchanged".

Exact metrics (``pages_per_query``, ``failed_frac``) are compared
exactly.  Results taken on a different CPU count, numpy flag, seed,
scale, run length or certified op count are not comparable and the
script refuses them.  Exit code 1 when any row is ``worse`` or
``unresolved``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: Metrics only ``--out`` results carry (``BENCHMARK.json`` requires every
#: metric on every workload and none at zero, so it cannot list them).
#: ``(unit, better, bound)``; a ``None`` bound means compared exactly.
EXTRA_METRICS = {
    "op_p99_ms": ("ms", "lower", 0.25),
    "write_p50_ms": ("ms", "lower", 0.10),
    "failed_frac": ("fraction", "lower", None),
}
EXACT = {"pages_per_query", "failed_frac"}


def metric_table() -> Dict[str, Tuple[str, str, Optional[float]]]:
    """``name → (unit, better, bound)`` for every end-to-end metric."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    table: Dict[str, Tuple[str, str, Optional[float]]] = {
        m["name"]: (m["unit"], m["better"], None if m["name"] in EXACT else m["bound"])
        for m in contract["end_to_end"]
    }
    table.update(EXTRA_METRICS)
    return table


def incomparable(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Why *a* and *b* cannot be compared (empty when they can)."""
    reasons = []
    for key in ("cpus", "numpy"):
        if a["stamp"][key] != b["stamp"][key]:
            reasons.append(f"{key}: {a['stamp'][key]} vs {b['stamp'][key]}")
    for key in ("seed", "scale", "seconds"):
        if a[key] != b[key]:
            reasons.append(f"{key}: {a[key]} vs {b[key]}")
    if sorted(a["workloads"]) != sorted(b["workloads"]):
        reasons.append("different workload sets")
        return reasons
    for name in a["workloads"]:
        for key in ("certified", "weight"):
            left = a["workloads"][name]["ops"][key]
            right = b["workloads"][name]["ops"][key]
            if left != right:
                reasons.append(f"{name} ops.{key}: {left} vs {right}")
    return reasons


def verdict(
    a: Dict[str, Any], b: Dict[str, Any], better: str, bound: Optional[float]
) -> Tuple[str, float]:
    """``(verdict, relative change)``; change > 0 means *b* is worse."""
    old, new = a["value"], b["value"]
    if bound is None:
        if new == old:
            return "same", 0.0
        worse = (new > old) == (better == "lower")
        return ("worse" if worse else "better"), (new - old) / old if old else float("inf")
    change = (new - old) / old
    if better == "higher":
        change = -change
    noise = max(a.get("spread") or 0.0, b.get("spread") or 0.0)
    if change > max(bound, noise):
        return "worse", change
    if change < -max(bound, noise):
        return "better", change
    return ("unresolved" if noise > bound else "same"), change


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Tuple[str, str, float, float, float, str]]:
    """Rows ``(workload, metric, a, b, change, verdict)``."""
    table = metric_table()
    rows = []
    for name, left in a["workloads"].items():
        right = b["workloads"][name]
        for metric, (_, better, bound) in table.items():
            if metric in left["metrics"] and metric in right["metrics"]:
                word, change = verdict(
                    left["metrics"][metric], right["metrics"][metric], better, bound
                )
                rows.append((
                    name, metric, left["metrics"][metric]["value"],
                    right["metrics"][metric]["value"], change, word,
                ))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    reasons = incomparable(*results)
    if reasons:
        print("not comparable: " + "; ".join(reasons), file=sys.stderr)
        return 2
    rows = compare(*results)
    print(f"{'workload':<11} {'metric':<16} {'A':>12} {'B':>12} {'worse by':>9}")
    for name, metric, old, new, change, word in rows:
        print(
            f"{name:<11} {metric:<16} {old:>12.5g} {new:>12.5g} "
            f"{100.0 * change:>+8.2f}%  {word}"
        )
    bad = sum(1 for row in rows if row[5] in ("worse", "unresolved"))
    print(f"{len(rows)} rows, {bad} worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
