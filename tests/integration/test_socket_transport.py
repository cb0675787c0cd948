"""Real-TCP transport integration suite (``pytest -m socket``).

Three layers of proof that the protocols survive a real wire:

* in-process loopback clusters -- every node on one simulator, but all
  inter-node traffic crossing actual TCP connections through the
  transport's listener, driven by the wall-clock pump;
* a seeded PSI workload over sockets under the same oracle the
  simulated suites use;
* a genuinely multi-process cluster (one OS process per node via
  ``repro.net.host``) whose merged history must also pass the oracles.

These tests move real bytes and real wall time, so they are marked
``socket`` and kept small; the sim suites carry the heavy scenario
load.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Cluster, ClusterConfig, TransportConfig
from repro.config import RunConfig
from repro.harness.runner import run_experiment
from repro.net.host import host_workload, launch_cluster, run_cluster
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

from tests.harness.oracle import assert_verdict

pytestmark = pytest.mark.socket


def socket_config(**overrides) -> ClusterConfig:
    defaults = dict(
        num_nodes=3,
        seed=11,
        clients_per_node=2,
        transport=TransportConfig(kind="socket"),
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def audit(history, catalog):
    """The verdicts every (FW-KV) history of this suite must pass,
    wherever it ran; returns the (read-only, update) record counts."""
    assert_verdict(history, catalog, fresh=True)
    updates = history.committed_updates()
    # Write vids were resolved from the catalog (a commit whose Decide
    # was still in flight when the run was cut has none yet).
    assert sum(1 for record in updates if record.writes()) > len(updates) / 2
    return len(history.committed_read_only()), len(updates)


# ----------------------------------------------------------------------
# In-process loopback cluster
# ----------------------------------------------------------------------
def test_transfer_txn_commits_over_real_tcp():
    with Cluster("fwkv", socket_config()) as cluster:
        cluster.load("account:alice", 100)
        cluster.load("account:bob", 0)

        def transfer(txn):
            balance = yield from txn.read("account:alice")
            txn.write("account:alice", balance - 10)
            txn.write("account:bob", 10)

        result = cluster.run_txn(transfer)
        assert result.committed
        stats = cluster.network.stats
        assert stats.messages_sent > 0
        assert stats.messages_dropped == 0

        def audit(txn):
            alice = yield from txn.read("account:alice")
            bob = yield from txn.read("account:bob")
            return alice + bob

        audited = cluster.run_txn(audit, read_only=True)
        assert audited.committed
        assert audited.value == 100


def test_seeded_workload_over_sockets_passes_psi_oracles():
    result = run_experiment(
        "fwkv",
        YCSBWorkload(YCSBConfig(num_keys=48)),
        socket_config(),
        RunConfig(duration=0.4, warmup=0.05),
        record_history=True,
    )
    cluster = result.cluster
    try:
        assert result.metrics["commits"] > 0
        audit(cluster.finalized_history(), cluster.version_catalog())
    finally:
        cluster.close()


def test_close_is_idempotent_and_run_after_close_unsupported():
    cluster = Cluster("fwkv", socket_config())
    cluster.close()
    cluster.close()  # second close must be a no-op


def test_self_messages_still_pass_through_the_serde():
    # Node-to-self traffic skips TCP but not the byte codec: a payload
    # that cannot cross a real wire must fail on every backend path.
    from repro.net.serde import WireEncodeError

    with Cluster("fwkv", socket_config()) as cluster:

        class Opaque:
            pass

        with pytest.raises(WireEncodeError):
            cluster.network.send(0, 0, "Heartbeat", Opaque())


def test_unknown_destination_drops_instead_of_crashing():
    with Cluster("fwkv", socket_config()) as cluster:
        from repro.core.wire import HeartbeatBody

        cluster.network.send(0, 99, "Heartbeat", HeartbeatBody(site_vc=(0,)))
        assert cluster.network.stats.drops_by_reason["unknown_dst"] == 1


def test_contended_keys_are_handed_over_in_line_over_real_tcp():
    """Four keys, six clients: every lost validation names its key
    (``VoteBody.lost``), its retry reads it in line
    (``ReadRequestBody.queue``) and first attempts yield to it
    (``ReadReturnBody.spoken_for``) -- a ``spoken_for`` abort is all three
    fields across the codec, none decoded to its default."""
    result = run_experiment(
        "fwkv",
        YCSBWorkload(YCSBConfig(num_keys=4, read_only_fraction=0.2)),
        # The audit resolves every write through the version catalog.
        socket_config(gc_enabled=False),
        RunConfig(duration=0.4, warmup=0.0),
        record_history=True,
    )
    cluster = result.cluster
    try:
        assert result.metrics["aborts_by_reason"].get("spoken_for", 0) > 0
        assert result.metrics["commits"] > 0
        audit(cluster.finalized_history(), cluster.version_catalog())
    finally:
        cluster.close()


def test_fault_injection_refuses_on_socket_backend():
    from repro.net import TransportError

    with Cluster("fwkv", socket_config()) as cluster:
        with pytest.raises(TransportError):
            cluster.network.crash(0)
        assert cluster.network.is_crashed(0) is False


# ----------------------------------------------------------------------
# Multi-process cluster (one OS process per node)
# ----------------------------------------------------------------------
def test_multiprocess_cluster_commits_and_passes_oracles():
    summary = launch_cluster(
        "fwkv",
        socket_config(seed=7),
        num_keys=48,
        duration=0.6,
        grace=0.4,
    )
    assert summary["checks"] == "green"
    assert summary["committed"] > 0
    assert summary["exit_codes"] == [0, 0, 0]
    assert summary["history_records"] > 0
    # The children's recorders reach the parent, summed.
    assert summary["counters"]["commits"] == summary["committed"]


def test_sim_and_socket_histories_of_one_workload_pass_the_same_oracles():
    """One workload, one seed, two fabrics: the sim never runs the codec,
    the socket hosts always do, and the same client loop drives both --
    over six keys, so every child's retries stand in line (DESIGN.md 4)
    and the line's three wire fields cross real connections."""
    num_keys, seed = 6, 17
    sim_run = run_experiment(
        "fwkv",
        host_workload(num_keys),
        ClusterConfig(
            num_nodes=3, seed=seed, clients_per_node=2, gc_enabled=False
        ),
        RunConfig(duration=0.03, warmup=0.0),
        record_history=True,
    )
    sim_cluster = sim_run.cluster
    sim_counts = audit(
        sim_cluster.finalized_history(), sim_cluster.version_catalog()
    )
    summary, history, catalog = run_cluster(
        "fwkv", socket_config(seed=seed, gc_enabled=False),
        num_keys=num_keys, duration=0.4, grace=0.3,
    )
    socket_counts = audit(history, catalog)
    assert summary["exit_codes"] == [0, 0, 0]
    assert sum(socket_counts) == summary["committed"] == len(history)
    assert sim_run.metrics["aborts"] > 0 and summary["aborted"] > 0
    # Same programs from the same client streams: both profiles ran on
    # both fabrics, over the same keys.
    assert min(sim_counts) > 0 and min(socket_counts) > 0
    keys = {key for key, _value in host_workload(num_keys).load_items()}
    for recorded in (sim_cluster.history, history):
        assert {op.key for r in recorded for op in r.ops} <= keys


def test_multiprocess_cluster_requires_socket_transport():
    with pytest.raises(ValueError):
        launch_cluster("fwkv", ClusterConfig(num_nodes=3))


def test_socket_cluster_script_end_to_end():
    script = Path(__file__).resolve().parents[2] / "scripts" / "socket_cluster.py"
    completed = subprocess.run(
        [
            sys.executable, str(script),
            "--nodes", "3", "--duration", "0.4", "--grace", "0.3",
            "--keys", "32", "--seed", "13",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    summary = json.loads(completed.stdout)
    assert summary["ok"] is True
    assert summary["checks"] == "green"
    assert summary["committed"] > 0
