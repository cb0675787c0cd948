#!/usr/bin/env python3
"""The perf ledger's one command.

One workload, in this process (the ``BENCHMARK.json`` contract)::

    python3 benchmarks/ledger/run.py --workload ycsb_uniform --seed 7 \\
        --seconds 10 --trace 0

prints every metric by name with unit, direction and bound, then one JSON
object as the last line.  ``--trace 1`` reports the per-layer metrics
(profile pass, counters, micro-benches) instead of the end-to-end ones.

Without ``--workload`` it records a full set into ``--out FILE`` (the
input of ``compare.py``): each of a workload's ``K`` repeats runs in its
own fresh subprocess, round-robin across the workloads so a slow minute
on a shared machine is spread over all of them, and the repeats pool.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(LEDGER_DIR, "..", "..", "src"))

from layers import trace  # noqa: E402
from measure import measure, summarise  # noqa: E402
from registry import (  # noqa: E402
    DEFAULT_SEED, END_TO_END, RUN_SECONDS, WORKLOADS, WORKLOADS_BY_NAME,
)

#: Stated with every result: what delay the messages of a run saw.
FABRIC = {
    "sim": "NetworkConfig default: 20 us base latency + 2 us jitter, virtual",
    "socket": "real loopback TCP, time_scale=1 (virtual time = wall time)",
}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def print_metrics(result: dict) -> None:
    print(f"[{result['workload']}] seed={result['seed']} "
          f"fabric: {FABRIC[result['fabric']]}")
    width = max(len(name) for name in result["metrics"])
    for name, m in result["metrics"].items():
        bound = f"bound {m['bound']:.0%}" if m.get("bound") is not None else ""
        if m.get("floor"):
            bound += f" or {m['floor']:g}"
        spread = (
            f"q1..q3 {m['q1']:.6g}..{m['q3']:.6g} n={m['n']}" if "q1" in m else ""
        )
        print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']:<12} "
              f"{m['better']:<6} {bound:<18} {spread}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def run_one(args) -> int:
    """Driver contract: one workload, last stdout line is the result."""
    spec = WORKLOADS_BY_NAME[args.workload]
    if args.trace:
        result = trace(spec, args.seed)
    else:
        result = measure(spec, args.seed, args.seconds, args.repeats, args.round)
    result["fabric"] = spec.cluster.transport.kind
    result["machine"] = machine()
    print_metrics(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    # The result line carries the BENCHMARK.json metrics of this pass;
    # the two ledger-only forms above are for full sets and compare.py.
    listed = result["metrics"] if args.trace else [m.name for m in END_TO_END]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name]["value"],
                   "unit": result["metrics"][name]["unit"]}
            for name in listed
        },
    }))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """A full set: one fresh subprocess per (round, workload), round-robin;
    round ``i`` is repeat ``i`` of every workload that has one.  A trace
    set is one round: its pass is two repeats in one process."""
    started = machine()
    rounds = {
        spec.name: 1 if args.trace
        else args.repeats or spec.repeats_for(args.seconds)
        for spec in WORKLOADS
    }
    runs = {spec.name: [] for spec in WORKLOADS}
    with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".ledger-") as tmp:
        part = os.path.join(tmp, "part.json")
        for round_no in range(max(rounds.values())):
            for spec in WORKLOADS:
                if round_no >= rounds[spec.name]:
                    continue
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", spec.name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--round", str(round_no), "--out", part,
                ]
                print(f"-- round {round_no + 1}/{rounds[spec.name]}: "
                      f"{spec.name}", flush=True)
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
                if not os.path.exists(part):
                    print(f"{spec.name} produced no result "
                          f"(exit {done.returncode})")
                    return 1
                with open(part, encoding="utf-8") as fh:
                    runs[spec.name].append(json.load(fh))
                os.remove(part)

    workloads = {}
    for name, results in runs.items():
        pooled = {}
        for result in results:
            for metric, values in result.get("samples", {}).items():
                pooled.setdefault(metric, []).extend(values)
        workloads[name] = {
            "deterministic": results[0]["deterministic"],
            "fabric": results[0]["fabric"],
            "correct": all(r["correct"] for r in results),
            "problems": [p for r in results for p in r["problems"]],
            # A trace result has no samples to pool: its metrics stand.
            "metrics": summarise(pooled, results[0]["deterministic"])
            if pooled else results[0]["metrics"],
            "samples": pooled,
            "rows": [row for r in results for row in r["repeats"]],
        }
    document = {
        "ledger": 1, "seed": args.seed, "seconds": args.seconds,
        "rounds": rounds, "trace": args.trace, "fabric": FABRIC,
        "machine": {"start": started, "end": machine()},
        "workloads": workloads,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1)
            fh.write("\n")
        print(f"recorded -> {args.out}")
    return 0 if all(w["correct"] for w in workloads.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS_BY_NAME),
                        help="run this workload in-process (default: all, "
                             "each in a subprocess)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured seconds per run; sizes the repeat count")
    parser.add_argument("--repeats", type=int, default=None,
                        help="override the repeat count K")
    parser.add_argument("--round", type=int, default=None,
                        help="run only this repeat of the K (what a full "
                             "set passes to its subprocesses)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: per-layer metrics instead of end-to-end")
    parser.add_argument("--out", help="write the detailed JSON here")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
