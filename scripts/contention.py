#!/usr/bin/env python3
"""What a contended key costs its writers, by key rank.

    python3 scripts/contention.py ycsb_zipf [--seed 7]

Builds one ledger workload the way the benchmark does
(``benchmarks/ledger/measure.timed_build`` / ``drive``: one repeat,
measured over the run's own window) and splits every *update* attempt
by the hottest key it writes -- rank 0, 1, 2 and the rest (YCSB's
``"zipf"`` keys are rank-ordered: ``u0`` is the hottest) -- by wrapping
``MetricsRecorder.on_commit`` / ``on_abort`` from outside: no ``src/``
edit, no counter.  Per rank:

* update commits, attempts per commit, mean and exact p99 latency (first
  attempt to acknowledgement, back-off sleeps included);
* commits by *queued* attempts -- retries that read the key they lost
  first, in line at its home (DESIGN.md 4) -- against unqueued ones, and
  the aborts of each kind;

then the places taken in line and how many of them were handed over by
lease (``places_expired``: the holder did not prepare within
``lock_timeout``), and the hottest key's commit interval -- the serial
cycle of one key that bounds the row (ROADMAP "Hot-key contention").

This is the table behind docs/performance.md "Hot-key contention: a line
instead of a lottery"; copy the file into a ``git clone`` of an older
commit to re-make its column (every attempt reads as unqueued there).
Virtual numbers repeat exactly per seed.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "ledger")]

from measure import drive, sub_seed, timed_build  # noqa: E402
from registry import DEFAULT_SEED, WORKLOADS_BY_NAME  # noqa: E402
from repro.metrics.stats import MetricsRecorder  # noqa: E402

RANKS = ("0", "1", "2", "rest")


def rank_of(txn) -> int:
    """Index into :data:`RANKS` of the hottest key ``txn`` writes."""
    return min(min(int(key[1:]) for key in txn.writeset), len(RANKS) - 1)


def measure(spec, seed: int) -> dict:
    """One repeat of ``spec`` under the wrappers: per-rank samples."""
    ranks = [
        {"latencies": [], "commits": [0, 0], "aborts": [0, 0]} for _ in RANKS
    ]
    on_commit, on_abort = MetricsRecorder.on_commit, MetricsRecorder.on_abort

    def counted_commit(self, txn, latency, attempts):
        if txn.writeset and self.in_window():
            row = ranks[rank_of(txn)]
            row["latencies"].append(latency)
            row["commits"][getattr(txn, "in_line", False)] += 1
        return on_commit(self, txn, latency, attempts)

    def counted_abort(self, txn, reason):
        if txn.writeset and self.in_window():
            ranks[rank_of(txn)]["aborts"][getattr(txn, "in_line", False)] += 1
        return on_abort(self, txn, reason)

    MetricsRecorder.on_commit, MetricsRecorder.on_abort = (
        counted_commit, counted_abort,
    )
    try:
        cluster, workload, _setup_s, _raw_s = timed_build(spec, seed)
        try:
            drive(cluster, workload, spec.warmup, spec.duration)
            summary = cluster.metrics.summary()
        finally:
            cluster.close()
    finally:
        MetricsRecorder.on_commit, MetricsRecorder.on_abort = on_commit, on_abort
    return {
        "ranks": ranks, "window_s": spec.duration,
        "places_expired": summary.get("places_expired", 0),
    }


def report(samples: dict) -> dict:
    """The table: one row per rank, then the line's own numbers."""
    rows = []
    for name, row in zip(RANKS, samples["ranks"]):
        latencies = sorted(row["latencies"])
        commits, aborts = sum(row["commits"]), sum(row["aborts"])
        rows.append({
            "rank": name,
            "commits": commits,
            "attempts_per_commit": (commits + aborts) / commits if commits else 0.0,
            "mean_us": statistics.fmean(latencies) * 1e6 if latencies else 0.0,
            "p99_us": (
                latencies[min(int(0.99 * commits), commits - 1)] * 1e6
                if latencies else 0.0
            ),
            "queued_commits": row["commits"][True],
            "unqueued_commits": row["commits"][False],
            "queued_aborts": row["aborts"][True],
            "unqueued_aborts": row["aborts"][False],
        })
    hot = rows[0]["commits"]
    return {
        "rows": rows,
        "places_taken": sum(
            row["queued_commits"] + row["queued_aborts"] for row in rows
        ),
        "places_expired": samples["places_expired"],
        "hot_interval_us": samples["window_s"] / hot * 1e6 if hot else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    spec = WORKLOADS_BY_NAME[args.workload]
    seed = sub_seed(args.seed, 0)
    table = report(measure(spec, seed))
    print(f"[{spec.name}] sub-seed={seed}: update attempts by the hottest "
          f"key written (one repeat, its measured window)")
    print(f"  {'rank':<6}{'commits':>8}{'att/commit':>11}{'mean us':>10}"
          f"{'p99 us':>10}{'queued c':>10}{'unqueued c':>11}"
          f"{'queued a':>10}{'unqueued a':>11}")
    for row in table["rows"]:
        print(f"  {row['rank']:<6}{row['commits']:>8}"
              f"{row['attempts_per_commit']:>11.2f}{row['mean_us']:>10.1f}"
              f"{row['p99_us']:>10.1f}{row['queued_commits']:>10}"
              f"{row['unqueued_commits']:>11}{row['queued_aborts']:>10}"
              f"{row['unqueued_aborts']:>11}")
    print(f"places taken in line: {table['places_taken']}, handed over by "
          f"lease: {table['places_expired']}")
    print(f"rank-0 commit interval: {table['hot_interval_us']:.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
