#!/usr/bin/env python3
"""Alternating parent/change driver runs of one perf-ledger workload.

    python3 scripts/ledger_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload ycsb_replicated --seed 19 --pairs 10 [--out pairs.json]

The measurement behind a claimed gain (choosing-metrics section 8), so
it no longer has to be done by hand.  Each pair runs the driver's own
command from ``CHANGE_DIR/BENCHMARK.json`` -- ``--workload W --seed S
--seconds run_seconds --trace 0`` -- once in each checkout, each in a
fresh process with that checkout as its working directory; even pairs
run the parent first, odd pairs the change.  Use a seed that was not
used while the change was written.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles over the pairs, the pairs the change won (a tie
counts for neither side), and whether the medians lie further apart than
the parent's own quartiles.  The last column is one of: ``gain`` -- the
change won at least nine tenths of the pairs *and* its median is better
by more than that distance (the only rows a gain may be claimed on);
``regressed`` -- its median is worse than the parent's by more than the
metric's ``bound``; ``unresolved`` -- either side's quartiles lie
further apart than that bound allows, and not every run of the change
beat every run of the parent (section 6, step 5); ``ok`` otherwise.
A last row, never gated, reads the raw set-up seconds
(``setup_raw_s``) of each run's repeat rows (the driver's ``--out``),
which no machine speed scales.  Exit code 1 when a metric regressed, or
any run reported ``correct: false`` or a failed operation; else 0.

``--expect-identical`` is the proof that nothing virtual moved, for a
change that keeps behaviour and lowers ``events`` (which ``compare.py
--expect-identical`` includes): every metric whose *parent* runs all
read the same value -- deterministic by observation: the seven virtual
metrics of a sim workload -- must read exactly that value in every
*change* run, or the metric and both values are listed and the exit
code is 1.  Wall metrics, which differ between parent runs, are left to
the verdicts above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List


#: Raw set-up seconds, the median of a run's repeat rows, unscaled by the
#: machine speed: a ``setup_s`` gain must show here too, or it came from
#: the yardstick.  Reported beside the metrics, never gated.
RAW_SETUP = {"name": "setup_raw_s", "unit": "s", "better": "lower", "bound": 0.25}


def run_once(checkout: Path, command: List[str], args: List[str]) -> dict:
    """One driver run in ``checkout``; its final stdout line is the
    ``{"correct", "attempted", "failed", "metrics"}`` JSON, to which the
    ``setup_raw_s`` of its ``--out`` repeat rows is added."""
    with tempfile.TemporaryDirectory() as scratch:
        detail = Path(scratch) / "run.json"
        done = subprocess.run(
            command + args + ["--out", str(detail)], cwd=checkout,
            capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            sys.exit(f"{checkout}: driver exited {done.returncode}\n{done.stderr}")
        repeats = json.loads(detail.read_text())["repeats"]
    result = json.loads(lines[-1])
    result["setup_raw_s"] = statistics.median(row["setup_raw_s"] for row in repeats)
    return result


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(metric: dict, parent: List[float], change: List[float]) -> dict:
    """One metric over the pairs run: the gain rule of section 8, else
    the no-regression rule of section 6 against the metric's bound."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    apart = abs(c_med - p_med) > p_q3 - p_q1
    better_by = sign * (c_med - p_med)
    allowed = metric["bound"] * abs(p_med)
    pairs = len(parent)
    if apart and better_by > 0 and won * 10 >= pairs * 9:
        verdict = "gain"
    elif -better_by > allowed:
        verdict = "regressed"
    elif max(p_q3 - p_q1, c_q3 - c_q1) > allowed and not (
        min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        verdict = "unresolved"  # unless every run beat every parent run
    else:
        verdict = "ok"
    return {
        "name": metric["name"], "unit": metric["unit"],
        "parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
        "won": won, "lost": lost, "pairs": pairs,
        "medians_apart": apart, "verdict": verdict,
        "parent_runs": parent, "change_runs": change,
    }


def deterministic(row: dict) -> bool:
    """Every parent run of the metric read exactly the same value."""
    return len(set(row["parent_runs"])) == 1


def not_identical(rows: List[dict]) -> List[str]:
    """``--expect-identical``: one line per :func:`deterministic` metric
    that reads anything else in some run of the change."""
    return [
        f"{row['name']}: parent {row['parent_runs'][0]!r} every run, "
        f"change {sorted(set(row['change_runs']))!r}"
        for row in rows
        if deterministic(row)
        and set(row["change_runs"]) != set(row["parent_runs"])
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="write the JSON report here")
    parser.add_argument(
        "--expect-identical", action="store_true",
        help="fail unless every metric the parent repeats exactly reads "
             "that same value in every run of the change",
    )
    options = parser.parse_args(argv)

    manifest = json.loads((options.change_dir / "BENCHMARK.json").read_text())
    args = [
        "--workload", options.workload, "--seed", str(options.seed),
        "--seconds", str(manifest["run_seconds"]), "--trace", "0",
    ]
    sides = {"parent": options.parent_dir, "change": options.change_dir}
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    for pair in range(options.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], manifest["command"], args))
        print(
            f"pair {pair + 1}/{options.pairs} ({order[0]} first) done",
            file=sys.stderr, flush=True,
        )

    def values(side: str, name: str) -> List[float]:
        return [run["metrics"][name]["value"] for run in runs[side]]

    rows = [
        summarise(metric, values("parent", metric["name"]),
                  values("change", metric["name"]))
        for metric in manifest["end_to_end"]
    ]
    failed = {
        side: sum(run["failed"] for run in runs[side]) for side in sides
    }
    incorrect = {
        side: sum(not run["correct"] for run in runs[side]) for side in sides
    }

    print(
        f"{options.workload}  seed {options.seed}  {options.pairs} alternating "
        f"pairs, {manifest['run_seconds']} s runs\n"
        "median (q1..q3) parent -> change; apart: the medians differ by "
        "more than the parent's q3 - q1"
    )
    raw = summarise(RAW_SETUP, *(
        [run["setup_raw_s"] for run in runs[side]] for side in ("parent", "change")
    ))
    for row in rows + [raw]:
        p_q1, p_med, p_q3 = row["parent"]
        c_q1, c_med, c_q3 = row["change"]
        change = f"{(c_med - p_med) / p_med:+.1%}" if p_med else "n/a"
        print(
            f"  {row['name']:<24} "
            f"{p_med:.6g} ({p_q1:.6g}..{p_q3:.6g}) -> "
            f"{c_med:.6g} ({c_q1:.6g}..{c_q3:.6g}) {row['unit']}  {change}  "
            f"won {row['won']}/{row['pairs']} lost {row['lost']}  "
            f"apart {'yes' if row['medians_apart'] else 'no'}  {row['verdict']}"
        )
    print(f"  failed operations: {failed}  runs not correct: {incorrect}")
    moved: List[str] = []
    if options.expect_identical:
        moved = not_identical(rows)
        print(
            f"  expect-identical: {sum(map(deterministic, rows))} "
            f"deterministic metric(s), {len(moved)} moved"
            + "".join(f"\n    {line}" for line in moved)
        )
    if options.pairs < 10:
        print("  fewer than ten pairs: no gain may be claimed from this run")
    if options.out is not None:
        options.out.write_text(json.dumps({
            "workload": options.workload, "seed": options.seed,
            "pairs": options.pairs, "metrics": rows, "setup_raw_s": raw,
            "failed": failed, "incorrect": incorrect, "not_identical": moved,
        }, indent=1) + "\n")
    regressed = any(row["verdict"] == "regressed" for row in rows)
    return int(
        regressed or bool(moved)
        or any(failed.values()) or any(incorrect.values())
    )


if __name__ == "__main__":
    sys.exit(main())
