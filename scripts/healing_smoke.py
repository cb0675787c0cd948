#!/usr/bin/env python
"""Non-gating self-healing convergence smoke.

Runs the headline heal-without-restart scenario at reduced scale: a
node is fully isolated while the rest of the cluster commits, the
partition heals, and *background anti-entropy alone* (zero foreground
traffic) must converge the victim to the exact durable state of a
never-partitioned control run. Prints a JSON summary and exits non-zero
on divergence, so CI can surface a convergence regression without
gating merges on it.

Usage::

    PYTHONPATH=src python scripts/healing_smoke.py [--seeds 7,11] \
        [--nodes 4] [--periods 10]
"""

import argparse
import json
import sys

from repro import Cluster, ClusterConfig, HealingConfig, NetworkConfig, RpcConfig
from repro.cluster import ShardMap
from repro.faults import Nemesis
from repro.faults.schedules import isolate_cycle
from repro.sim.rng import make_rng
from repro.storage.wal import store_fingerprint

NUM_KEYS = 16
VICTIM = 2
AE_INTERVAL = 4e-4
SETTLE = 1e-3
WINDOW = 20e-3


def build(seed, num_nodes):
    config = ClusterConfig(
        num_nodes=num_nodes,
        seed=seed,
        gc_enabled=False,
        network=NetworkConfig(
            jitter=5e-6,
            rpc=RpcConfig(request_timeout=1.5e-3, max_attempts=3),
        ),
        healing=HealingConfig(
            anti_entropy_interval=AE_INTERVAL, digest_timeout=5e-4
        ),
    )
    directory = ShardMap(range(num_nodes), num_nodes)
    cluster = Cluster("fwkv", config, directory=directory)
    for i in range(NUM_KEYS):
        cluster.load(f"k{i}", 0)
    return cluster, Nemesis(cluster)


def drive(cluster, plan):
    outcomes = []

    def driver():
        for coordinator, keys in plan:
            node = cluster.node(coordinator)
            txn = node.begin(is_read_only=False)
            values = []
            for key in keys:
                values.append((yield from node.read(txn, key)))
            for key, value in zip(keys, values):
                node.write(txn, key, value + 1)
            outcomes.append((yield from node.commit(txn)))
            yield cluster.sim.timeout(SETTLE)

    cluster.spawn(driver(), name="smoke-driver")
    cluster.run(until=cluster.sim.now + len(plan) * (SETTLE + 1e-3) + 1e-3)
    return len(outcomes) == len(plan) and all(outcomes)


def fingerprint(node):
    return (
        store_fingerprint(node.store),
        node.site_vc.to_tuple(),
        node.curr_seq_no,
    )


def run_scenario(seed, num_nodes, periods, partition):
    cluster, nemesis = build(seed, num_nodes)
    rng = make_rng(seed, "healing-smoke")
    all_keys = [f"k{i}" for i in range(NUM_KEYS)]
    victim_keys = {
        key for key in all_keys if cluster.directory.site(key) == VICTIM
    }
    other_keys = sorted(set(all_keys) - victim_keys)
    others = [n for n in range(num_nodes) if n != VICTIM]

    plan_a = [(n % num_nodes, rng.sample(all_keys, 2)) for n in range(8)]
    if not drive(cluster, plan_a):
        return None, "phase A commit failed"

    cut_at = cluster.sim.now + 1e-4
    if partition:
        nemesis.start(isolate_cycle(VICTIM, range(num_nodes), cut_at, WINDOW))
    cluster.run(until=cut_at + 1e-5)

    plan_b = [
        (others[n % len(others)], rng.sample(other_keys, 2))
        for n in range(6)
    ]
    if not drive(cluster, plan_b):
        return None, "phase B commit failed"

    budget = periods * (AE_INTERVAL * 1.1 + 5e-4)
    cluster.run(until=cut_at + WINDOW + budget)
    result = fingerprint(cluster.nodes[VICTIM])
    metrics = cluster.metrics
    summary = {
        "anti_entropy_rounds": metrics.counters["anti_entropy_rounds"],
        "records_streamed": metrics.counters["records_streamed"],
        "catchup_advances": metrics.counters["catchup_advances"],
        "heal_reports": len(nemesis.heal_reports),
    }
    cluster.stop_healing()
    cluster.run()
    return (result, summary), None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="7,11")
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument(
        "--periods", type=int, default=10,
        help="anti-entropy periods granted after the heal",
    )
    args = parser.parse_args()

    failures = 0
    for seed in (int(s) for s in args.seeds.split(",")):
        healed, err_h = run_scenario(seed, args.nodes, args.periods, True)
        control, err_c = run_scenario(seed, args.nodes, args.periods, False)
        if err_h or err_c:
            print(json.dumps({"seed": seed, "error": err_h or err_c}))
            failures += 1
            continue
        converged = healed[0] == control[0]
        report = {
            "seed": seed,
            "converged": converged,
            "periods": args.periods,
            **healed[1],
        }
        print(json.dumps(report))
        if not converged:
            failures += 1
    if failures:
        print(f"healing smoke: {failures} scenario(s) diverged", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
