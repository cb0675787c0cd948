#!/usr/bin/env python3
"""What a loaded key costs, by allocation site.

    python3 scripts/footprint.py ycsb_uniform [--seed 7] [--top 10]

Builds one ledger workload the way the benchmark does
(``benchmarks/ledger/measure.timed_build``), under ``tracemalloc``, and
prints where the memory held after set-up was allocated: bytes and
objects per *held key* (a key is held once per node storing it, so twice
under rf=2), one row per ``file:line``.  Blocks of 64 KiB and more are
hash tables and bucket lists, not per-key objects, and are summed in
their own column.  The ``storage/`` total is the per-key cost of the
storage layer's own objects (versions, chains and whatever hangs off
them) -- the number ``docs/performance.md`` "What a key costs" tracks;
a loaded key is held as its value until first touched, so it reads ~0.

Then it drives one repeat (``measure.drive``: the workload's warmup +
duration) and prints what the run phase added, largest sites first, and
the run's touched share: version chains built (keys read or written at
least once) over held keys.
A ``placement`` row sizes the directory's memo (the keys the run
routed; the load fills none) and a ``clocks`` row counts the distinct
clock objects behind the installed versions (one per commit per site).
Where commits are kept on record (``ycsb_replicated``, ``ycsb_durable``)
a ``decision_log`` row says what one update commit leaves behind in
``DecisionLog.by_txn`` / ``by_seq`` at its coordinator and in
``BackupState.decisions`` at its decision homes -- nothing prunes either
on a WAL-less run (ROADMAP item 9).  On WAL workloads (``ycsb_durable``)
a ``wal`` row says what the log holds, by record kind and per update
commit, and on FW-KV a ``tombstones`` row sizes the stores' tombstone
windows and expiry columns (``MultiVersionStore``).
Tracing slows the run several-fold; nothing here is a timing.
"""

from __future__ import annotations

import argparse
import gc
import platform
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "ledger")]

from measure import drive, sub_seed, timed_build  # noqa: E402
from registry import DEFAULT_SEED, WORKLOADS_BY_NAME  # noqa: E402
from repro.cluster.directory import ShardMap  # noqa: E402
from repro.storage import Version, VersionChain  # noqa: E402

#: Blocks this large are tables that grow with the keyspace, not objects.
TABLE_BYTES = 64 * 1024
#: The row of a site that held nothing.
NOTHING = (0, 0, 0)


#: Stripped from traced file names, so sites read ``src/repro/...``.
PREFIX = f"{ROOT}/"


def held_by_site() -> dict:
    """``site -> [object bytes, objects, table bytes]`` of live blocks."""
    gc.collect()
    sites: dict = {}
    for trace in tracemalloc.take_snapshot().traces:
        frame = trace.traceback[0]
        site = f"{frame.filename.removeprefix(PREFIX)}:{frame.lineno}"
        row = sites.setdefault(site, [0, 0, 0])
        if trace.size >= TABLE_BYTES:
            row[2] += trace.size
        else:
            row[0] += trace.size
            row[1] += 1
    return sites


def held_bytes(root, seen=None) -> int:
    """``sys.getsizeof`` over everything reachable from ``root``, each
    object once (once across calls sharing ``seen``).  Strings are left
    out: keys and values are the store's."""
    seen = set() if seen is None else seen
    total, stack = 0, [root]
    while stack:
        obj = stack.pop()
        if obj is None or isinstance(obj, str) or id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(
                getattr(obj, slot, None)
                for slot in getattr(type(obj), "__slots__", ())
            )
    return total


def print_decision_log(cluster) -> None:
    """What the commits on record cost, per update commit."""
    logs = [node.in_doubt.log for node in cluster.nodes]
    commits = sum(len(log.by_txn) for log in logs)
    if not commits:
        return
    logged = held_bytes([(log.by_txn, log.by_seq) for log in logs])
    homes = [
        state.decisions for node in cluster.nodes
        if node.replication is not None
        for state in node.replication.backup_state.values()
    ]
    copies = sum(map(len, homes))
    print(f"  decision_log: {commits} update commits on record, "
          f"{logged / commits:.0f} B each in DecisionLog.by_txn/by_seq; "
          f"{copies / commits:.2f} copies each in BackupState.decisions, "
          f"{held_bytes(homes) / commits:.0f} B per commit")


def print_wal(cluster) -> None:
    """What the write-ahead logs hold, by record kind, largest first; an
    object two kinds share counts for the kind first met in the log."""
    by_kind: dict = {}
    for node in cluster.nodes:
        for record in node.wal.records() if node.wal is not None else ():
            by_kind.setdefault(type(record).__name__, []).append(record)
    if not by_kind:
        return
    commits = len(by_kind.get("DecisionRecord", ()))
    seen: set = set()
    held = {kind: held_bytes(records, seen) for kind, records in by_kind.items()}
    kinds = ", ".join(
        f"{kind} {len(by_kind[kind])} / {held[kind] / 2**20:.2f} MB"
        for kind in sorted(held, key=held.get, reverse=True)
    )
    print(f"  wal: {sum(held.values()) / 2**20:.2f} MB in {kinds}; "
          f"{sum(held.values()) / max(commits, 1):.0f} B per update commit")


def print_placement(cluster, held: int) -> None:
    """What the directory's memo holds: one entry per key routed."""
    directory = cluster.directory
    memo = directory._shard_cache if isinstance(directory, ShardMap) else directory._cache
    print(f"  placement: {len(memo)} memo entries, {len(memo) / held:.3f} per "
          f"held key, {sys.getsizeof(memo) / 2**20:.2f} MB of table")


def print_clocks() -> None:
    """Distinct clock objects behind the versions commits installed."""
    clocks = [
        id(obj.vc) for obj in gc.get_objects()
        if type(obj) is Version and obj.writer_txn is not None
    ]
    if clocks:
        print(f"  clocks: {len(set(clocks))} distinct clocks for {len(clocks)} "
              f"installed versions, {len(set(clocks)) / len(clocks):.2f} per version")


def print_tombstones(cluster) -> None:
    """Ids the stores hold tombstoned, the windows and expiry columns."""
    stores = [node.store for node in cluster.nodes]
    windows = [store._tombstones for store in stores]
    if not any(windows):
        return
    ids = sum(window.count(1) for window in windows)
    columns = sum(
        sys.getsizeof(column) for store in stores for column in (
            store._expiry_ids, store._expiry_times, store._expiry_ends))
    batches = sum(len(store._expiry_times) - store._expiry_head for store in stores)
    print(f"  tombstones: {ids} ids in {len(windows)} windows of "
          f"{sum(map(len, windows))} B (largest {max(map(len, windows))} B), "
          f"{batches} expiry batches in columns of {columns} B "
          f"({columns / ids:.1f} B per id)")


def size(row) -> int:
    """Bytes a site holds, objects and tables together."""
    return row[0] + row[2]


def print_rows(sites: dict, per: int, top: int) -> None:
    print(f"  {'B/key':>9} {'objects/key':>12} {'tables B/key':>13}  site")
    ranked = sorted(sites.items(), key=lambda item: -size(item[1]))
    for site, (objects, count, tables) in ranked[:top]:
        print(f"  {objects / per:9.1f} {count / per:12.3f} {tables / per:13.1f}  {site}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--top", type=int, default=10)
    args = parser.parse_args()
    spec = WORKLOADS_BY_NAME[args.workload]

    tracemalloc.start(1)
    cluster, workload, _setup_s, _raw_s = timed_build(spec, sub_seed(args.seed, 0))
    try:
        held = sum(len(node.store) for node in cluster.nodes)
        loaded = held_by_site()
        total = sum(map(size, loaded.values()))
        print(f"[{spec.name}] seed={args.seed} protocol={spec.protocol} "
              f"keys={spec.ycsb.num_keys} held={held} "
              f"python={platform.python_version()}")
        print(f"after set-up: {total / 2**20:.1f} MB traced, "
              f"{total / held:.0f} B per held key")
        print_rows(loaded, held, args.top)
        storage = [row for site, row in loaded.items() if "/storage/" in site]
        print(f"  storage/ objects: {sum(r[0] for r in storage) / held:.1f} B "
              f"and {sum(r[1] for r in storage) / held:.2f} objects per held key")

        drive(cluster, workload, spec.warmup, spec.duration)
        after = held_by_site()
        grown = Counter({
            site: size(row) - size(loaded.get(site, NOTHING))
            for site, row in after.items()
        })
        print(f"run phase ({spec.warmup + spec.duration:g} virtual s): "
              f"{sum(grown.values()) / 2**20:+.1f} MB")
        for site, added in grown.most_common(args.top):
            blocks = after[site][1] - loaded.get(site, NOTHING)[1]
            print(f"  {added / 2**20:+8.2f} MB {blocks:+9d} objects  {site}")
        chains = sum(type(obj) is VersionChain for obj in gc.get_objects())
        print(f"  touched share: {chains} materialized chains / {held} held keys "
              f"= {chains / held:.1%}")
        print_placement(cluster, held)
        print_clocks()
        print_decision_log(cluster)
        print_wal(cluster)
        print_tombstones(cluster)
    finally:
        cluster.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
