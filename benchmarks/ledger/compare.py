#!/usr/bin/env python3
"""Compare two full ledger sets: ``compare.py A.json B.json``.

One verdict per (gated metric, workload), using the bounds and quartiles
recorded in the files themselves.  A metric may worsen by
``max(bound * A's median, floor)``: relative, with the metric's absolute
floor, so a baseline of 0 is still gated.

* ``regressed``  -- B's median is worse than A's by more than that;
* ``improved``   -- better by more than that;
* ``unchanged``  -- within it;
* ``unresolved`` -- the sets cannot tell: the spread between quartiles (of
  either set) is wider than the allowance, or the medians differ by more
  than it while the two quartile ranges still overlap.  This is where the
  noisy pairs of the wall-bound ``ycsb_socket`` land; the bound is not
  widened for them.

Metrics a simulated workload reproduces exactly per seed are flagged
``exact`` in the sets; they carry no measurement noise, so their verdict
skips the quartile tests.  The per-repeat deterministic fields (commits,
aborts, events per seed) are compared exactly and listed separately;
``--expect-identical`` turns a difference there into a failure, for
same-code reruns and refactors that claim no behaviour change.

Exit code: 0 nothing regressed, 1 something did, 2 the sets do not match.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple

VERDICTS = ("regressed", "unresolved", "improved", "unchanged")


def verdict(a: dict, b: dict) -> Tuple[str, float]:
    """(verdict, change in the worse direction, in the metric's unit)."""
    sign = 1.0 if a["better"] == "lower" else -1.0
    worse = sign * (b["value"] - a["value"])
    allowed = max(a["bound"] * abs(a["value"]), a.get("floor", 0.0))
    if not a.get("exact"):
        if max(a["q3"] - a["q1"], b["q3"] - b["q1"]) > allowed:
            return "unresolved", worse
        overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
        if abs(worse) > allowed and overlap:
            return "unresolved", worse
    if worse > allowed:
        return "regressed", worse
    if worse < -allowed:
        return "improved", worse
    return "unchanged", worse


def deterministic_rows(workload: dict) -> List[tuple]:
    return [
        (row["seed"], row["commits"], row["aborts"], row["events"])
        for row in workload["rows"]
    ]


def compare(a: dict, b: dict) -> Tuple[List[tuple], Dict[str, bool]]:
    """Rows of (workload, metric, verdict, worse, a, b) and, per
    deterministic workload, whether its per-repeat fields are identical."""
    rows, identical = [], {}
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for metric, ma in wa["metrics"].items():
            if ma.get("bound") is None:
                continue  # per-layer metrics are informational
            mb = wb["metrics"][metric]
            outcome, worse = verdict(ma, mb)
            rows.append((name, metric, outcome, worse, ma["value"], mb["value"]))
        if wa["deterministic"]:
            identical[name] = deterministic_rows(wa) == deterministic_rows(wb)
    return rows, identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline set (run.py --out)")
    parser.add_argument("b", help="candidate set")
    parser.add_argument("--expect-identical", action="store_true",
                        help="fail when a deterministic field differs")
    args = parser.parse_args(argv)
    with open(args.a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        b = json.load(fh)
    if set(a["workloads"]) != set(b["workloads"]) or any(
        a[key] != b[key] for key in ("seed", "seconds", "trace")
    ):
        print("sets differ in workloads, seed, seconds or trace; not comparable")
        return 2

    rows, identical = compare(a, b)
    width = max((len(row[1]) for row in rows), default=0)
    for name, metric, outcome, worse, va, vb in rows:
        change = f"{worse / abs(va):+8.2%}" if va else f"{worse:+8.2g}"
        print(f"{name:<20} {metric:<{width}}  {outcome:<10} "
              f"{change} worse  {va:.6g} -> {vb:.6g}")
    print()
    print("deterministic fields (commits, aborts, events per seed):")
    for name, same in identical.items():
        print(f"  {name:<20} {'identical' if same else 'DIFFER'}")
    counts = {v: sum(1 for row in rows if row[2] == v) for v in VERDICTS}
    print()
    print("  ".join(f"{v}: {counts[v]}" for v in VERDICTS))
    failed = counts["regressed"] > 0 or (
        args.expect_identical and not all(identical.values())
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
