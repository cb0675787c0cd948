"""FW-KV reproduction: a PSI transactional key-value store with fresh reads.

This package reproduces *FW-KV: Improving Read Guarantees in PSI*
(Javidi Kishi & Palmieri, Middleware 2021): the FW-KV concurrency control,
the Walter and 2PC baselines it is evaluated against, the YCSB and TPC-C
workloads, and the full benchmark harness for the paper's figures -- all on
top of a deterministic discrete-event simulation of a multi-node cluster.

Quickstart::

    from repro import Cluster, ClusterConfig

    cluster = Cluster("fwkv", ClusterConfig(num_nodes=4))
    cluster.load("account:alice", 100)
    cluster.load("account:bob", 0)

    def transfer(txn):
        balance = yield from txn.read("account:alice")
        txn.write("account:alice", balance - 10)
        txn.write("account:bob", 10)

    result = cluster.run_txn(transfer)
    assert result.committed

:meth:`~repro.system.Cluster.run_txn` begins the transaction, hands the
body a :class:`~repro.system.TxnHandle`, drives it, auto-commits, and
runs the simulator to quiescence.  Reads go over the simulated wire, so
they stay ``yield from``; writes buffer locally and are plain calls.
The lower-level API (``node.begin`` / ``yield from node.read`` /
``yield from node.commit`` inside a ``cluster.run_process`` generator)
remains fully supported for scripts that interleave transactions.

Every ``*Config`` dataclass round-trips through ``to_dict()`` /
``from_dict()`` for JSON serialization of experiment configs.
"""

from repro.cluster.membership import MembershipView, NodeMembership
from repro.config import (
    CheckpointConfig,
    ClusterConfig,
    DurabilityConfig,
    HealingConfig,
    NetworkConfig,
    ReplicationConfig,
    RpcConfig,
    RunConfig,
    ShardingConfig,
    SnapshotTransferConfig,
    TransportConfig,
)
from repro.system import PROTOCOLS, Cluster, TxnHandle, TxnResult

__version__ = "1.4.0"

__all__ = [
    "CheckpointConfig",
    "Cluster",
    "ClusterConfig",
    "DurabilityConfig",
    "HealingConfig",
    "MembershipView",
    "NetworkConfig",
    "NodeMembership",
    "PROTOCOLS",
    "ReplicationConfig",
    "RpcConfig",
    "RunConfig",
    "ShardingConfig",
    "SnapshotTransferConfig",
    "TransportConfig",
    "TxnHandle",
    "TxnResult",
    "__version__",
]
