#!/usr/bin/env python3
"""Where an update commit waits, in virtual time, phase by phase.

    python3 scripts/commit_waits.py ycsb_replicated [--seed 7]

Builds one ledger workload the way the benchmark does
(``benchmarks/ledger/measure.timed_build`` / ``drive``: one repeat,
warm-up included) and times, by wrapping from outside -- no ``src/``
edit, no counter -- the four places a commit can sit between its
``commit()`` and its Decides:

* **vote collection**: ``commit()`` entered -> the decision put on record
  (``DecisionLog.record``), once per update commit;
* **ensure_durable**: the forced write of the decision (WAL runs);
* **prepare replication wait**: ``NodeReplication.replicate_prepare`` at
  each participant (a plain call that cannot wait counts as a call, not
  as a wait);
* **decision replication wait**: ``NodeReplication.replicate_decision``
  at the coordinator.

A *wait* is a call that took virtual time; median, mean and p99 are
over the waits (a queueing wait shows in the p99 first).  The
participants' prepare waits run in parallel and the decision's follows
them, so ``replication waits per update commit`` is
the table behind docs/performance.md "One round trip fewer": 2.70 with
two waits in series at PR 22, 1.00 with one since (copy this file into
a ``git clone`` of an older commit to re-make its column: it measures
the checkout it sits in).  Virtual numbers repeat exactly per seed.
"""

from __future__ import annotations

import argparse
import inspect
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "ledger")]

from measure import drive, sub_seed, timed_build  # noqa: E402
from registry import DEFAULT_SEED, WORKLOADS_BY_NAME  # noqa: E402
from repro.core.mvcc_node import MVCCNode  # noqa: E402
from repro.core.repair import DecisionLog  # noqa: E402
from repro.replication.shard import NodeReplication  # noqa: E402
from repro.storage.group_commit import WalFlusher  # noqa: E402

PHASES = (
    "vote collection", "ensure_durable", "prepare replication wait",
    "decision replication wait",
)
REPLICATION = PHASES[2:]


def probe(cls, name: str, samples: list) -> None:
    """Wrap ``cls.name`` so each call appends the virtual time it took."""
    inner = getattr(cls, name)
    if inspect.isgeneratorfunction(inner):
        def timed(self, *args, **kwargs):
            start = self.sim.now
            result = yield from inner(self, *args, **kwargs)
            samples.append(self.sim.now - start)
            return result
    else:
        def timed(self, *args, **kwargs):
            samples.append(0.0)
            return inner(self, *args, **kwargs)
    setattr(cls, name, timed)


def measure(spec, seed: int) -> dict:
    """One repeat of ``spec`` under the probes: ``phase -> [seconds]``."""
    samples = {phase: [] for phase in PHASES}
    entered = {}
    commit, record = MVCCNode.commit, DecisionLog.record

    def timed_commit(self, txn):
        entered[txn.txn_id] = self.sim.now
        return commit(self, txn)

    def timed_record(self, decide, by_site):
        now = self.node.sim.now
        samples[PHASES[0]].append(now - entered.pop(decide.txn_id, now))
        return record(self, decide, by_site)

    patched = [
        (MVCCNode, "commit", commit), (DecisionLog, "record", record),
        (WalFlusher, "ensure_durable", WalFlusher.ensure_durable),
        (NodeReplication, "replicate_prepare", NodeReplication.replicate_prepare),
        (NodeReplication, "replicate_decision", NodeReplication.replicate_decision),
    ]
    MVCCNode.commit, DecisionLog.record = timed_commit, timed_record
    probe(WalFlusher, "ensure_durable", samples[PHASES[1]])
    probe(NodeReplication, "replicate_prepare", samples[PHASES[2]])
    probe(NodeReplication, "replicate_decision", samples[PHASES[3]])
    try:
        cluster, workload, _setup_s, _raw_s = timed_build(spec, seed)
        try:
            drive(cluster, workload, spec.warmup, spec.duration)
        finally:
            cluster.close()
    finally:
        for cls, name, original in patched:
            setattr(cls, name, original)
    return samples


def report(samples: dict) -> list:
    """The table's rows: ``(phase, calls, waits, per commit, median us,
    mean us, p99 us)``, then the replication waits per update commit."""
    commits = len(samples[PHASES[0]]) or 1
    rows = []
    for phase in PHASES:
        waits = [s for s in samples[phase] if s > 0]
        rows.append((
            phase, len(samples[phase]), len(waits), len(waits) / commits,
            statistics.median(waits) * 1e6 if waits else 0.0,
            statistics.fmean(waits) * 1e6 if waits else 0.0,
            statistics.quantiles(waits, n=100)[98] * 1e6
            if len(waits) > 1 else sum(waits) * 1e6,
        ))
    in_replication = sum(row[2] for row in rows if row[0] in REPLICATION)
    return rows + [in_replication / commits]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    spec = WORKLOADS_BY_NAME[args.workload]
    seed = sub_seed(args.seed, 0)
    *rows, per_commit = report(measure(spec, seed))
    print(f"[{spec.name}] sub-seed={seed} update commits={rows[0][1]} "
          f"(one repeat, warm-up included)")
    print(f"  {'phase':<28}{'calls':>7}{'waits':>7}{'per commit':>12}"
          f"{'median us':>11}{'mean us':>9}{'p99 us':>9}")
    for phase, calls, waits, per, median, mean, p99 in rows:
        print(f"  {phase:<28}{calls:>7}{waits:>7}{per:>12.2f}"
              f"{median:>11.1f}{mean:>9.1f}{p99:>9.1f}")
    print(f"replication waits per update commit: {per_commit:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
