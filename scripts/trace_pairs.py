#!/usr/bin/env python
"""Do two source trees produce the same traces?

Runs a fixed set of fully traced scenarios against each tree and
compares, scenario by scenario, every trace record ``(time, node, kind,
details)`` and the non-zero entries of the run's ``metrics.summary()``.
A change that must not alter behaviour -- a refactor, a knob turned
into a constant -- reports every scenario ``identical``; any difference
prints the first record that differs and exits 1.

The scenarios cover the cold paths the benchmark never reaches:

* ``healing_partition`` -- a node isolated and healed under RPC
  deadlines, heartbeats and anti-entropy (failure detector, backoff
  jitter, gossip peer draw);
* ``checkpoint_truncation`` -- WAL checkpoints under a partition: the
  isolated node holds every survivor's truncation back until gossip has
  caught it up, then the logs truncate;
* ``durable_crash`` -- a crash that wipes volatile state, WAL replay;
* ``replication_failover`` -- a replicated shard's primary crashes and
  its backup is promoted.

Each tree runs in its own interpreter and imports only the public
``repro`` API, so the script works against any tree that has it.

Usage::

    python scripts/trace_pairs.py PARENT_SRC CHANGE_SRC [--scenario NAME ...]

``PARENT_SRC`` / ``CHANGE_SRC`` is a checkout's root or its ``src``
directory.  ``--dump SRC`` prints one tree's records as JSON instead.
All four scenarios take about a second per tree.
"""

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

SEED = 7
NUM_NODES = 4
KEYS = [f"k{i}" for i in range(16)]
#: Pause between one client's transactions.
THINK = 200e-6


# ----------------------------------------------------------------------
# Scenarios (run inside the tree under test)
# ----------------------------------------------------------------------
def build(**config):
    from repro import Cluster, ClusterConfig, NetworkConfig, RpcConfig

    config.setdefault("network", NetworkConfig(
        jitter=5e-6, rpc=RpcConfig(request_timeout=1e-3, max_attempts=3)
    ))
    cluster = Cluster("fwkv", ClusterConfig(
        num_nodes=NUM_NODES, seed=SEED, gc_enabled=False,
        prepared_lease=5e-3, **config,
    ))
    for key in KEYS:
        cluster.load(key, 0)
    cluster.tracer.enable()
    return cluster


def traffic(cluster, coordinators, until):
    """One client per coordinator, seeded, until ``until``: a third of
    its transactions read-only, the rest read-modify-write; an attempt
    whose RPC timed out is rolled back."""
    from repro.net import RpcTimeoutError

    def client(coordinator):
        rng = random.Random(f"{SEED}-{coordinator}")
        node = cluster.node(coordinator)
        while cluster.sim.now < until:
            read_only = rng.random() < 1 / 3
            step = rng.sample(KEYS, 3 if read_only else 2)
            started = cluster.sim.now
            txn = node.begin(is_read_only=read_only)
            try:
                values = []
                for key in step:
                    values.append((yield from node.read(txn, key)))
                if not read_only:
                    for key, value in zip(step, values):
                        node.write(txn, key, value + 1)
                if (yield from node.commit(txn)):
                    cluster.metrics.on_commit(txn, cluster.sim.now - started, 1)
            except RpcTimeoutError:
                node.abort(txn)
            yield cluster.sim.timeout(THINK)

    for coordinator in coordinators:
        cluster.spawn(client(coordinator), name=f"client-{coordinator}")


def finish(cluster, until):
    """Run to ``until`` with the loops armed, then to quiescence."""
    cluster.run(until=until)
    cluster.stop_healing()
    cluster.run()
    return cluster


def healing_partition():
    from repro import HealingConfig
    from repro.faults import Nemesis, isolate_cycle

    cluster = build(healing=HealingConfig(
        heartbeat_interval=5e-4, anti_entropy_interval=1e-3,
    ))
    traffic(cluster, range(NUM_NODES), 20e-3)
    Nemesis(cluster).start(isolate_cycle(2, range(NUM_NODES), 4e-3, 6e-3))
    return finish(cluster, 30e-3)


def checkpoint_truncation():
    import repro
    from repro import DurabilityConfig, HealingConfig
    from repro.faults import Nemesis, isolate_cycle

    # Trees that still have ``CheckpointConfig`` nest the interval in it.
    if hasattr(repro, "CheckpointConfig"):
        checkpoint = dict(checkpoint=repro.CheckpointConfig(interval=2e-3))
    else:
        checkpoint = dict(checkpoint_interval=2e-3)
    cluster = build(
        durability=DurabilityConfig(wal_enabled=True),
        healing=HealingConfig(anti_entropy_interval=1e-3, **checkpoint),
    )
    traffic(cluster, (0, 1, 3), 25e-3)
    Nemesis(cluster).start(isolate_cycle(2, range(NUM_NODES), 3e-3, 15e-3))
    return finish(cluster, 35e-3)


def durable_crash():
    from repro import DurabilityConfig
    from repro.faults import Nemesis, durable_crash_cycle

    cluster = build(durability=DurabilityConfig(wal_enabled=True))
    traffic(cluster, (0, 2, 3), 15e-3)
    Nemesis(cluster).start(durable_crash_cycle(1, 5e-3, 3e-3))
    return finish(cluster, 15e-3)


def replication_failover():
    from repro import HealingConfig, ReplicationConfig, ShardingConfig
    from repro.faults import Nemesis, crash_cycle

    cluster = build(
        sharding=ShardingConfig(enabled=True, num_shards=12),
        replication=ReplicationConfig(
            enabled=True, replication_factor=2, failover_timeout=4e-3
        ),
        healing=HealingConfig(
            heartbeat_interval=1e-3, anti_entropy_interval=2e-3
        ),
    )
    traffic(cluster, (0, 2), 20e-3)
    Nemesis(cluster).start(crash_cycle(1, 5e-3, 20e-3))
    return finish(cluster, 40e-3)


SCENARIOS = {
    scenario.__name__: scenario
    for scenario in (
        healing_partition, checkpoint_truncation, durable_crash,
        replication_failover,
    )
}


def dump(names):
    """Every chosen scenario's records and summary, as repr lines."""
    out = {}
    for name in names:
        cluster = SCENARIOS[name]()
        lines = [
            repr((record.time, record.node, record.event, record.details))
            for record in cluster.tracer.records
        ]
        lines.append(f"dropped {cluster.tracer.dropped}")
        # A zero entry and an absent one read alike: deleting a counter
        # that never counted in a scenario moves nothing in it.
        summary = {k: v for k, v in cluster.metrics.summary().items() if v != 0}
        lines.append(f"summary {summary!r}")
        out[name] = lines
    return out


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def source_dir(tree):
    root = Path(tree).resolve()
    src = root / "src" if (root / "src" / "repro").is_dir() else root
    if not (src / "repro").is_dir():
        sys.exit(f"{tree}: no repro package under it or its src/")
    return src


def run_tree(tree, names):
    argv = [sys.executable, __file__, "--dump", tree, "--scenario", *names]
    done = subprocess.run(argv, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{tree}: scenarios failed\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", metavar="SRC")
    parser.add_argument("--dump", metavar="SRC")
    parser.add_argument(
        "--scenario", nargs="+", choices=sorted(SCENARIOS),
        default=list(SCENARIOS),
    )
    args = parser.parse_args(argv)
    if args.dump:
        sys.path.insert(0, str(source_dir(args.dump)))
        json.dump(dump(args.scenario), sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("give PARENT_SRC and CHANGE_SRC")
    parent, change = (run_tree(tree, args.scenario) for tree in args.trees)
    differ = 0
    for name in args.scenario:
        a, b = parent[name], change[name]
        records = len(a) - 2
        if a == b:
            print(f"{name:22} identical  {records} records")
            continue
        differ += 1
        at = next(
            (i for i, (x, y) in enumerate(zip(a, b)) if x != y),
            min(len(a), len(b)),
        )
        print(f"{name:22} DIFFERENT  at line {at} ({len(a)} vs {len(b)} lines)")
        print(f"  parent: {a[at] if at < len(a) else '<end>'}"[:400])
        print(f"  change: {b[at] if at < len(b) else '<end>'}"[:400])
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
