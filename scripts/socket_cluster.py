#!/usr/bin/env python
"""Launch a multi-process loopback socket cluster and audit it.

Spawns one node-host process per node (``python -m repro.net.host``),
runs a seeded closed-loop PSI workload over real TCP connections
between them, merges every process's history and version catalog, and
runs the oracle over the union.  Exit code 0 iff every child
exited cleanly, transactions committed, and the oracle found nothing.

Usage::

    PYTHONPATH=src python scripts/socket_cluster.py
    PYTHONPATH=src python scripts/socket_cluster.py \
        --nodes 4 --protocol walter --duration 2.0 --seed 3

See docs/networking.md for the transport and phase-protocol details.
"""

import argparse
import json
import sys

from repro import ClusterConfig, TransportConfig
from repro.net.host import launch_cluster


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="multi-process loopback socket cluster"
    )
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--protocol", default="fwkv",
                        choices=("fwkv", "walter", "2pc"))
    parser.add_argument("--clients", type=int, default=2,
                        help="clients per node")
    parser.add_argument("--keys", type=int, default=48)
    parser.add_argument("--duration", type=float, default=1.0,
                        help="measured run, virtual seconds")
    parser.add_argument("--grace", type=float, default=0.5,
                        help="post-run drain, virtual seconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--time-scale", type=float, default=1.0,
                        help="virtual seconds per wall second")
    parser.add_argument("--base-port", type=int, default=0,
                        help="node i listens on base+i (0 = ephemeral)")
    args = parser.parse_args(argv)

    config = ClusterConfig(
        num_nodes=args.nodes,
        seed=args.seed,
        clients_per_node=args.clients,
        transport=TransportConfig(
            kind="socket",
            time_scale=args.time_scale,
            base_port=args.base_port,
        ),
    )
    try:
        summary = launch_cluster(
            args.protocol,
            config,
            num_keys=args.keys,
            duration=args.duration,
            grace=args.grace,
        )
    except (RuntimeError, AssertionError) as exc:
        print(json.dumps({"ok": False, "error": str(exc)}))
        return 1
    summary["ok"] = True
    summary["counters"] = {
        name: value for name, value in summary["counters"].items() if value
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
