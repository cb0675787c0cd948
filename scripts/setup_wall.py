#!/usr/bin/env python3
"""Where a ledger workload's set-up wall time goes, phase by phase.

    python3 scripts/setup_wall.py ycsb_replicated [--seed 7] [--repeats 5]

Sets one ledger workload up the way the benchmark does
(``benchmarks/ledger/measure.timed_build``: wire the workload and the
cluster, then ``Cluster.load_many`` over ``LOAD_BATCH``-item slices of
``load_items()``, the reference loop ticking in between) and splits the
wall time by wrapping from outside -- instance attributes shadow the
methods, no ``src/`` edit -- into:

* **wiring**: ``YCSBWorkload(...)`` and ``Cluster(...)``;
* **item generation**: pulling each slice of ``load_items()``;
* **placement**: the directory's ``place_many`` / ``hash_shards``;
* **buckets and mirror**: the rest of ``Cluster.load_many`` -- dealing
  each chunk into per-node buckets, backups included;
* **store insert**: every store's ``create_many``;
* **LoadRecord**: the rest of each node's ``load_many`` -- the durable
  ``LoadRecord`` on WAL runs, one list copy and the clock look-up else.

Each phase is the median over ``--repeats`` set-ups in this process, in
milliseconds at raw speed and scaled to nominal speed by the reference
loop (1.0 = the ledger's nominal box), as ``setup_s`` is.  Copy this
file into a ``git clone`` of an older commit to time that tree: a tree
whose load places key by key shows its placement under buckets.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "ledger")]

from measure import LOAD_BATCH, Reference, sub_seed  # noqa: E402
from registry import DEFAULT_SEED, WORKLOADS_BY_NAME  # noqa: E402
from repro.system import Cluster  # noqa: E402
from repro.workloads.ycsb import YCSBWorkload  # noqa: E402

PHASES = ("wiring", "item generation", "placement", "buckets and mirror",
          "store insert", "LoadRecord")


def timed(fn, phase: str, spent: Counter):
    """``fn``, adding its wall nanoseconds to ``spent[phase]``."""
    clock = time.perf_counter_ns

    def call(*args):
        started = clock()
        try:
            return fn(*args)
        finally:
            spent[phase] += clock() - started

    return call


def set_up(spec, seed: int, reference: Reference) -> Counter:
    """One set-up; nanoseconds per phase (the ``total`` row included)."""
    gc.collect()
    spent: Counter = Counter()
    clock = time.perf_counter_ns
    started = clock()
    workload = YCSBWorkload(spec.ycsb)
    cluster = Cluster(spec.protocol, dataclasses.replace(spec.cluster, seed=seed))
    spent["wiring"] = clock() - started
    directory = cluster.directory
    for name in ("place_many", "hash_shards"):
        if hasattr(directory, name):
            setattr(directory, name, timed(getattr(directory, name), "placement", spent))
    for node in cluster.nodes:
        node.store.create_many = timed(node.store.create_many, "store insert", spent)
        node.load_many = timed(node.load_many, "node load", spent)
    items = iter(workload.load_items())
    for _ in range(-(-spec.ycsb.num_keys // LOAD_BATCH)):
        reference.tick()
        started = clock()
        batch = list(itertools.islice(items, LOAD_BATCH))
        pulled = clock()
        cluster.load_many(batch)
        spent["item generation"] += pulled - started
        spent["cluster load"] += clock() - pulled
    cluster.close()
    spent["LoadRecord"] = spent.pop("node load") - spent["store insert"]
    spent["buckets and mirror"] = (
        spent.pop("cluster load") - spent["placement"] - spent["store insert"]
        - spent["LoadRecord"]
    )
    spent["total"] = sum(spent[phase] for phase in PHASES)
    return spent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(
        name for name, spec in WORKLOADS_BY_NAME.items()
        if spec.cluster.transport.kind == "sim"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    spec = WORKLOADS_BY_NAME[args.workload]
    reference = Reference()
    runs = [set_up(spec, sub_seed(args.seed, index), reference)
            for index in range(args.repeats)]
    speed = reference.speed
    print(f"[{spec.name}] {spec.ycsb.num_keys} keys, {len(runs)} set-ups, "
          f"machine speed={speed:.2f}")
    print(f"  {'phase':<22}{'raw ms':>9}{'nominal ms':>12}{'ns/key':>9}{'share':>7}")
    total = statistics.median(run["total"] for run in runs)
    for phase in PHASES + ("total",):
        ns = statistics.median(run[phase] for run in runs)
        print(f"  {phase:<22}{ns / 1e6:>9.2f}{ns * speed / 1e6:>12.2f}"
              f"{ns / spec.ycsb.num_keys:>9.0f}{ns / total:>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
