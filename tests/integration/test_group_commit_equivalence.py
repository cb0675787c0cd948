"""Group commit and adaptive batching: inert by default, safe when on.

Mirrors ``test_batching_equivalence``'s two levels of assurance for the
PR's new perf knobs:

* Disabled-by-default equivalence.  While ``fsync_latency == 0`` the
  WAL is unbuffered and every append instantly durable, and the
  accepted-but-unread ``group_commit_window`` changes nothing -- a run
  with it set must be *bit-identical* to the seed defaults: same commit
  log, same per-node siteVC history at every quiescence point, same WAL
  contents.
* Enabled, the durable group-commit path and adaptive batching may shift
  which transactions win races (commit acks now wait on batched syncs;
  windows stretch and shrink) but must keep the oracle's verdict clean
  on a concurrent chaos workload and still quiesce fully converged.
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
                batching=BatchingConfig(adaptive=True),
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
    cluster = _make_cluster(
        protocol,
        batching=BatchingConfig(adaptive=True),
    )
    _chaos(cluster)
    _assert_consistent(cluster)
    if protocol == "fwkv":
        assert cluster.total_vas_entries() == 0


def test_adaptive_with_durable_group_commit_combined():
    cluster = _make_cluster(
        "fwkv",
        batching=BatchingConfig(adaptive=True),
        durability=DurabilityConfig(wal_enabled=True, fsync_latency=50e-6),
    )
    _chaos(cluster)
    _assert_consistent(cluster)
    counters = cluster.metrics.counters
    assert counters["wal_records_synced"] > counters["wal_syncs"] > 0


# ----------------------------------------------------------------------
# The AIMD controller itself, exercised deterministically on one node.
# ----------------------------------------------------------------------

def _adaptive_node():
    cluster = _make_cluster("walter", batching=BatchingConfig(adaptive=True))
    return cluster, cluster.node(0)


def test_adaptive_pressure_probe_opens_closed_window():
    from repro.core.batching import PRESSURE_OPEN, ADAPTIVE_STEP as step

    cluster, node = _adaptive_node()
    # A closed window serves sends immediately; back-to-back sends at the
    # same instant are maximally hot (gap zero), so after the cold first
    # send plus PRESSURE_OPEN hot ones the window opens at one step.
    for seq_no in range(PRESSURE_OPEN + 1):
        node._send_propagate(set(), seq_no)
        opened = dict(node._adaptive_windows)
        if seq_no < PRESSURE_OPEN:
            assert not opened, f"window opened early after send {seq_no}"
    destinations = {i for i in range(NODES) if i != node.node_id}
    assert opened == {site: step for site in destinations}
    # Once open, sends buffer instead of going out immediately.
    node._send_propagate(set(), 99)
    assert set(node._propagate_buffer) == destinations


def test_adaptive_window_grows_only_past_target_depth():
    from repro.core.batching import (
        TARGET_DEPTH, ADAPTIVE_DECAY, ADAPTIVE_STEP as step, MAX_WINDOW,
    )

    cluster, node = _adaptive_node()
    site = (node.node_id + 1) % NODES

    # Depth inside the band: window holds (no ratchet toward MAX_WINDOW).
    node._adaptive_windows[site] = step
    node._propagate_buffer[site] = list(range(TARGET_DEPTH))
    node._flush_propagate(site)
    assert node._adaptive_windows[site] == step

    # Depth beyond the band: additive growth, capped at MAX_WINDOW.
    node._propagate_buffer[site] = list(range(TARGET_DEPTH + 1))
    node._flush_propagate(site)
    assert node._adaptive_windows[site] == 2 * step
    node._adaptive_windows[site] = MAX_WINDOW
    node._propagate_buffer[site] = list(range(TARGET_DEPTH + 1))
    node._flush_propagate(site)
    assert node._adaptive_windows[site] == MAX_WINDOW

    # Singleton flush: multiplicative decay, snapping to zero (closed).
    node._adaptive_windows[site] = step
    node._propagate_buffer[site] = [1]
    node._flush_propagate(site)
    assert node._adaptive_windows[site] == step * ADAPTIVE_DECAY
    node._adaptive_windows[site] = 1e-10
    node._propagate_buffer[site] = [2]
    node._flush_propagate(site)
    assert node._adaptive_windows[site] == 0.0
