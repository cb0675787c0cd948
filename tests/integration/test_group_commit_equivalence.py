"""Durable group commit: inert by default, safe when on.

* Disabled-by-default equivalence.  While ``fsync_latency == 0`` the
  WAL is unbuffered and every append instantly durable, and the
  accepted-but-unread ``group_commit_window`` and ``batching.adaptive``
  change nothing -- a run with them set must be *bit-identical* to the
  seed defaults: same commit log, same per-node siteVC history at every
  quiescence point, same WAL contents.
* Enabled, the durable group-commit path may shift which transactions
  win races (commit acks now wait on batched syncs) but must keep the
  oracle's verdict clean on a concurrent chaos workload and still
  quiesce fully converged; so must a chaos run with the unread
  ``batching.adaptive`` set.
* The price of durability is bounded: one forced write, at most the
  in-flight sync plus its own.
"""

import pytest

from repro import ClusterConfig
from repro.config import BatchingConfig, DurabilityConfig, RunConfig
from repro.harness.runner import run_experiment
from repro.sim.rng import make_rng
from repro.workloads import YCSBConfig, YCSBWorkload

from tests.harness.oracle import assert_psi
from tests.integration.scenario_tools import (
    modulo_cluster, run_sequential, spawn_increment_clients,
)

NODES = 3
KEYS = [f"k{i}" for i in range(9)]


def _make_cluster(protocol, *, batching=None, durability=None):
    return modulo_cluster(
        protocol, KEYS, seed=23, batching=batching or BatchingConfig(),
        durability=durability or DurabilityConfig(),
    )


def _run_sequential(protocol, *, batching=None, durability=None):
    cluster = _make_cluster(protocol, batching=batching, durability=durability)
    log, site_vc_history = run_sequential(cluster, KEYS, make_rng(23, "gc-equiv"))
    wal_lengths = tuple(len(node.wal) if node.wal else 0 for node in cluster.nodes)
    return log, site_vc_history, wal_lengths


@pytest.mark.parametrize("protocol", ("fwkv", "walter"))
def test_group_commit_window_inert_without_fsync_latency(protocol):
    baseline = _run_sequential(
        protocol, durability=DurabilityConfig(wal_enabled=True)
    )
    knobs_set = _run_sequential(
        protocol,
        batching=BatchingConfig(adaptive=True),
        durability=DurabilityConfig(
            wal_enabled=True, group_commit_window=300e-6
        ),
    )
    assert knobs_set[0] == baseline[0], "commit logs diverged"
    assert knobs_set[1] == baseline[1], "siteVC histories diverged"
    assert knobs_set[2] == baseline[2], "WAL lengths diverged"


def _chaos(cluster):
    spawn_increment_clients(cluster, KEYS, "gc-chaos")
    cluster.run()


def _assert_consistent(cluster, *, min_commits=240):
    assert len(assert_psi(cluster, quiescent=True)) >= min_commits
    clocks = cluster.site_clocks()
    assert all(clock == clocks[0] for clock in clocks)


@pytest.mark.parametrize("fsync_latency", (20e-6, 50e-6))
@pytest.mark.parametrize("protocol", ("fwkv", "walter"))
def test_durable_group_commit_chaos_stays_consistent(protocol, fsync_latency):
    cluster = _make_cluster(
        protocol,
        durability=DurabilityConfig(
            wal_enabled=True, fsync_latency=fsync_latency
        ),
    )
    _chaos(cluster)
    _assert_consistent(cluster)
    # The busy disk actually batched: fewer syncs than records.
    counters = cluster.metrics.counters
    assert counters["wal_records_synced"] > counters["wal_syncs"] > 0
    # Quiescence drained every buffer: nothing volatile is left behind.
    for node in cluster.nodes:
        assert node.wal.durable_lsn == node.wal.tail_lsn


def test_durable_update_latency_stays_within_one_forced_write():
    """The ledger's ``ycsb_durable`` shape, scaled down, against the same
    seed volatile.  Presumed abort forces one write, the coordinator's
    decision (DESIGN.md 5.10, C1: a participant votes without waiting for
    its prepare's sync), and a force waits at most two syncs, so
    durability may cost the median update at most ``2 x fsync_latency``.
    Two forces in series (PRs 16-18: +3 here) do not fit, nor does a
    scheduler that holds groups open on a timer (PRs 7-15: +5).
    """
    fsync_latency = 100e-6

    def run(durability):
        return run_experiment(
            "fwkv",
            YCSBWorkload(
                YCSBConfig(
                    num_keys=5000, read_only_fraction=0.5, keys_per_txn=2
                )
            ),
            ClusterConfig(
                num_nodes=10,
                clients_per_node=5,
                seed=29,
                durability=durability,
            ),
            RunConfig(duration=0.008, warmup=0.002),
        )

    volatile = run(DurabilityConfig()).metrics
    result = run(
        DurabilityConfig(wal_enabled=True, fsync_latency=fsync_latency)
    )
    durable = result.metrics
    assert volatile["commits"] > 1000 and durable["commits"] > 700
    assert (
        durable["update_latency_percentiles"]["p50"]
        <= volatile["update_latency_percentiles"]["p50"] + 2 * fsync_latency
    )
    assert durable["wal_records_synced"] / durable["wal_syncs"] > 1
    # The counters say where the wait went: one force per update commit
    # (both count from time zero; a sequence number is an update commit).
    updates = sum(node.curr_seq_no for node in result.cluster.nodes)
    assert 0.95 * updates <= durable["wal_waits"] <= 1.05 * updates
    mean_wait = durable["wal_wait_time"] / durable["wal_waits"]
    assert fsync_latency <= mean_wait <= 2 * fsync_latency


@pytest.mark.parametrize("protocol", ("fwkv", "walter"))
def test_adaptive_batching_chaos_stays_consistent(protocol):
    """The frozen ledger still passes ``BatchingConfig(adaptive=True)``;
    unread, it leaves a chaos run consistent and fully drained."""
    cluster = _make_cluster(
        protocol,
        batching=BatchingConfig(adaptive=True),
    )
    _chaos(cluster)
    _assert_consistent(cluster)
    if protocol == "fwkv":
        assert cluster.total_vas_entries() == 0


def test_adaptive_with_durable_group_commit_combined():
    """The ledger's durable row shape (FW-KV, 100 us syncs, the unread
    ``adaptive=True``): Removes on the per-node timer still erase every
    visible read."""
    cluster = _make_cluster(
        "fwkv",
        batching=BatchingConfig(adaptive=True),
        durability=DurabilityConfig(wal_enabled=True, fsync_latency=100e-6),
    )
    _chaos(cluster)
    _assert_consistent(cluster)
    assert cluster.total_vas_entries() == 0
    counters = cluster.metrics.counters
    assert counters["wal_records_synced"] > counters["wal_syncs"] > 0
