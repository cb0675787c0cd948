"""Drive a workload against a cluster with closed-loop clients.

The paper's methodology (Section 5): five application threads per node
inject transactions in a closed loop -- a client issues a new request only
when the previous one has returned -- and an aborted transaction is
retried until it commits.  Results are measured over a window that starts
after a warmup period.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cluster.directory import Directory
from repro.config import ClusterConfig, RunConfig
from repro.core.cost_model import CLIENT_OVERHEAD
from repro.metrics.stats import AbortReason
from repro.net.rpc import RpcTimeoutError
from repro.sim.rng import make_rng
from repro.system import Cluster
from repro.workloads.base import Rollback, TxnContext, Workload

#: Base pause before retrying an aborted transaction.
DEFAULT_RETRY_BACKOFF = 100e-6
#: Truncation point of the binary exponential retry back-off: the pause
#: after the n-th abort is ``backoff * min(2**(n-1), cap)``, jittered to
#: up to twice that.  A client that keeps losing first-committer-wins on
#: one hot key thereby stops re-arriving at the rate it is refused at.
RETRY_BACKOFF_CAP = 64


def retry_delay(backoff: float, attempts: int, rng) -> float:
    """Pause before retry number ``attempts`` (one seeded draw)."""
    exponent = min(attempts - 1, RETRY_BACKOFF_CAP.bit_length() - 1)
    return backoff * 2**exponent * (1.0 + rng.random())


@dataclass
class ExperimentResult:
    """Everything a figure needs from one (protocol, parameters) run."""

    protocol: str
    workload: str
    params: Dict[str, object]
    metrics: Dict[str, object]
    wall_seconds: float
    cluster: Cluster = field(repr=False, default=None)

    @property
    def throughput_ktps(self) -> float:
        """Committed transactions per second, in thousands."""
        return self.metrics["throughput"] / 1e3

    @property
    def abort_rate(self) -> float:
        """The run's abort rate (aborted attempts / all attempts)."""
        return self.metrics["abort_rate"]

    @property
    def mean_antidep(self) -> float:
        """Mean anti-dependency set size collected at prepare (Figure 6)."""
        return self.metrics["antidep_collected"]["mean"]


def client_loop(
    cluster: Cluster,
    node_id: int,
    client_id: int,
    workload: Workload,
    stop_time: float,
    backoff: float = DEFAULT_RETRY_BACKOFF,
    _ignored: None = None,
):
    """One closed-loop client process: retries every abort until commit.

    ``_ignored`` is accepted because the frozen
    ``benchmarks/ledger/measure.py`` still passes ``None`` there.
    """
    sim = cluster.sim
    node = cluster.node(node_id)
    rng = make_rng(cluster.config.seed, "client", node_id, client_id)

    while sim.now < stop_time:
        program = workload.generate(rng, node_id)
        first_attempt_started = sim.now
        attempts = 0
        lost = None
        while True:
            attempts += 1
            txn = node.begin(program.is_read_only, program.profile)
            ctx = TxnContext(node, txn)
            yield CLIENT_OVERHEAD
            try:
                if lost is not None:
                    # FW-KV (DESIGN.md 4): first, and in line at its home;
                    # the program's own read of it hits the read cache.
                    yield from node.read(txn, lost, queue=True)
                yield from program.run(ctx)
                ok = yield from node.commit(txn)
            except Rollback:
                node.abort(txn)
                break  # intended outcome; no retry
            except RpcTimeoutError:
                # A read (or commit-path) RPC exhausted its retries --
                # the peer is crashed or partitioned.  An abort like any
                # other: counted as one, and the transaction is retried.
                node.abort(txn, AbortReason.RPC_TIMEOUT)
                ok = False
            lost = txn.lost_key
            if ok:
                cluster.metrics.on_commit(
                    txn, sim.now - first_attempt_started, attempts
                )
                break
            yield retry_delay(backoff, attempts, rng)


def run_experiment(
    protocol: str,
    workload: Workload,
    cluster_config: ClusterConfig,
    run_config: RunConfig,
    directory: Optional[Directory] = None,
    record_history: bool = False,
    backoff: float = DEFAULT_RETRY_BACKOFF,
    params: Optional[Dict[str, object]] = None,
) -> ExperimentResult:
    """Build a cluster, load the workload, run clients, return metrics."""
    cluster = Cluster(
        protocol, cluster_config, directory=directory, record_history=record_history
    )
    cluster.load_many(workload.load_items())

    stop_time = run_config.warmup + run_config.duration
    cluster.metrics.open_window(run_config.warmup, stop_time)
    for node_id in cluster_config.node_ids:
        for client_id in range(cluster_config.clients_per_node):
            cluster.spawn(
                client_loop(
                    cluster, node_id, client_id, workload, stop_time, backoff
                ),
                name=f"client-{node_id}-{client_id}",
            )

    started = time.perf_counter()
    # The loaded keyspace and cluster wiring stay live for the whole run;
    # freezing them keeps the cyclic collector from rescanning hundreds of
    # thousands of static objects on every oldest-generation pass.  Unfreeze
    # afterwards so repeated experiments in one process still collect them.
    gc.freeze()
    try:
        cluster.run(until=stop_time)
    finally:
        gc.unfreeze()
    wall = time.perf_counter() - started

    metrics = cluster.metrics.summary()
    utilizations = cluster.cpu_utilization(stop_time)
    metrics["mean_cpu_utilization"] = (
        sum(utilizations) / len(utilizations) if utilizations else 0.0
    )
    return ExperimentResult(
        protocol=protocol,
        workload=workload.name,
        params=dict(params or {}),
        metrics=metrics,
        wall_seconds=wall,
        cluster=cluster,
    )
