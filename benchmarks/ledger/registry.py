"""The ledger's declarative tables: workloads, metrics, layers.

One table per concept and one runner (``measure.py``) that walks them --
the figure-registry idiom (name -> config).  ``manifest()`` renders the
same tables as ``/BENCHMARK.json``; a self-test keeps the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import (
    BatchingConfig,
    ClusterConfig,
    DurabilityConfig,
    ReplicationConfig,
    ShardingConfig,
    TransportConfig,
)
from repro.workloads.ycsb import YCSBConfig

#: Seconds one driver run measures (``--seconds``); sizes the repeat count.
RUN_SECONDS = 10
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fixed amount of work per repeat.

    ``warmup``/``duration`` are virtual seconds on the simulated fabric
    and wall seconds on the socket fabric (``time_scale=1``).  The work
    of a repeat never depends on how fast the machine is; ``--seconds``
    only scales the repeat count ``K`` (``repeats`` is ``K`` at
    ``RUN_SECONDS``, sized on the reference 2-core box).
    """

    name: str
    why: str
    protocol: str
    cluster: ClusterConfig
    ycsb: YCSBConfig
    warmup: float
    duration: float
    repeats: int
    #: Measured duration of the history-recording oracle run.
    gate_duration: float
    #: Sim runs repeat exactly per seed; a socket run is wall-bound, so
    #: every one of its metrics rides machine speed.  ``BENCHMARK.json``
    #: lists the deterministic workloads (``manifest``).
    deterministic: bool = True

    def repeats_for(self, seconds: float) -> int:
        return max(2, round(self.repeats * seconds / RUN_SECONDS))


_MID = dict(num_nodes=10, clients_per_node=5)
_KEYS = dict(num_keys=100_000, read_only_fraction=0.5, keys_per_txn=2)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="ycsb_uniform",
        why="fig5 mid-scale point: sim+core+storage dominate; WAL, "
            "replication and serde are bypassed and must show no change",
        protocol="fwkv",
        cluster=ClusterConfig(**_MID),
        ycsb=YCSBConfig(**_KEYS),
        warmup=0.01, duration=0.03, repeats=4,
        gate_duration=0.003,
    ),
    Workload(
        name="ycsb_uniform_walter",
        why="same inputs under Walter: shared node/storage/sim code with "
            "no VAS and no Remove; gives the FW-KV-vs-Walter ratio",
        protocol="walter",
        cluster=ClusterConfig(**_MID),
        ycsb=YCSBConfig(**_KEYS),
        warmup=0.01, duration=0.03, repeats=4,
        gate_duration=0.003,
    ),
    Workload(
        name="ycsb_zipf",
        why="zipf s=1.1 contention: lock table, abort/retry path and "
            "client backoff dominate; only place the hot-key item shows",
        protocol="fwkv",
        cluster=ClusterConfig(**_MID),
        ycsb=YCSBConfig(distribution="zipf", zipf_s=1.1, **_KEYS),
        warmup=0.01, duration=0.3, repeats=4,
        gate_duration=0.02,
    ),
    Workload(
        name="ycsb_durable",
        why="WAL + group commit + adaptive batching on the commit path: "
            "the commit ack waits for the covering sync",
        protocol="fwkv",
        cluster=ClusterConfig(
            durability=DurabilityConfig(
                wal_enabled=True, fsync_latency=100e-6,
                group_commit_window=200e-6,
            ),
            batching=BatchingConfig(adaptive=True),
            **_MID,
        ),
        ycsb=YCSBConfig(**_KEYS),
        warmup=0.01, duration=0.05, repeats=4,
        gate_duration=0.005,
    ),
    Workload(
        name="ycsb_replicated",
        why="rf=2 sync replication over 64 shards: the measured 4.5x "
            "cliff, most sim calls per commit",
        protocol="fwkv",
        cluster=ClusterConfig(
            sharding=ShardingConfig(enabled=True, num_shards=64),
            replication=ReplicationConfig(
                enabled=True, replication_factor=2, mode="sync"
            ),
            **_MID,
        ),
        ycsb=YCSBConfig(**_KEYS),
        warmup=0.01, duration=0.01, repeats=3,
        gate_duration=0.003,
    ),
    Workload(
        name="ycsb_socket",
        why="real loopback TCP, 6 nodes x 4 clients: serde and the socket "
            "transport do work no sim workload touches; wall-bound",
        protocol="fwkv",
        cluster=ClusterConfig(
            num_nodes=6, clients_per_node=4,
            transport=TransportConfig(kind="socket"),
        ),
        ycsb=YCSBConfig(
            num_keys=10_000, read_only_fraction=0.5, keys_per_txn=2
        ),
        # Not a driver workload, so not sized to a 10 s run: ISSUE 11's
        # 8 wall-s x K=3.
        warmup=0.5, duration=8.0, repeats=3,
        gate_duration=1.0,
        deterministic=False,
    ),
)

WORKLOADS_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the baseline median by which the metric may worsen.
    #: ``None`` marks a per-layer (informational) metric.
    bound: Optional[float] = None
    what: str = ""
    #: Measured against the wall clock (noisy even on a simulated run);
    #: every other end-to-end metric repeats exactly per seed there.
    wall: bool = False
    #: Absolute floor of the bound, in the metric's unit: ``compare.py``
    #: allows a worsening of ``max(bound * baseline, floor)``, so a metric
    #: whose baseline is 0 is still gated.  The driver's bounds are
    #: relative only and cannot express one.
    floor: float = 0.0


#: What a user of the store sees, as listed in ``BENCHMARK.json``.  Its
#: bounds are global across workloads and checked across *different*
#: seeds, so each is about three times the between-quartile spread of its
#: noisiest workload over ten seeds (README, "Measured noise"): zipf for
#: the virtual metrics, the shared box's wall noise for the wall metrics.
#: ``attempts_per_commit`` and ``ro_fresh_read_fraction`` are abort rate
#: and stale-read fraction restated so they are never 0, which that
#: contract requires; at these bounds they only see a gross change, and
#: the fine gate on both is ``LEDGER_ONLY`` below.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "workload + Cluster(...) + load_many wall seconds at nominal "
           "machine speed, median of >= 5 set-ups", wall=True, floor=0.1),
    Metric("commits_per_wall_s_norm", "1/s", "higher", 0.20,
           "window commits / run-phase wall seconds at nominal machine speed",
           wall=True),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           "ru_maxrss of the workload process after its first repeat",
           wall=True),
    Metric("virt_throughput_ktps", "ktxn/s", "higher", 0.20,
           "summary()['throughput']/1e3: virtual time on sim, wall on socket"),
    Metric("attempts_per_commit", "attempts/txn", "lower", 0.20,
           "1/(1-abort_rate): commit attempts per committed transaction"),
    Metric("ro_latency_p50_us", "us", "lower", 0.05,
           "read-only txn, first attempt -> commit, retries included"),
    Metric("ro_latency_p99_us", "us", "lower", 0.10, "same, p99"),
    Metric("update_latency_p50_us", "us", "lower", 0.15,
           "update txn, first attempt -> commit, retries included"),
    Metric("update_latency_p99_us", "us", "lower", 0.25, "same, p99"),
    Metric("ro_fresh_read_fraction", "fraction", "higher", 0.01,
           "1 - stale_read_fraction over read-only reads (FW-KV's claim)"),
)

#: ISSUE 11's own two forms, at its bound of "1% or 0.005 abs".  They are
#: 0 (or a handful of events) on most workloads, so they cannot be in
#: ``BENCHMARK.json``; full sets record them and ``compare.py`` gates them
#: like any end-to-end metric.  Same-seed sim values are exact, so the
#: floor costs nothing: an abort rate rising from 0.0002 to 0.006 on
#: ``ycsb_uniform`` is ``regressed``.  (Walter's whole staleness on the
#: uniform workload is 0.00025, below the floor: that contrast is read
#: off the two workloads' values, not off a verdict.)
LEDGER_ONLY: Tuple[Metric, ...] = (
    Metric("abort_rate", "fraction", "lower", 0.01,
           "summary()['abort_rate']: the share of attempts that abort",
           floor=0.005),
    Metric("ro_stale_read_fraction", "fraction", "lower", 0.01,
           "summary()['stale_read_fraction'] over read-only reads",
           floor=0.005),
)

#: Everything ``compare.py`` gates.
GATED: Tuple[Metric, ...] = END_TO_END + LEDGER_ONLY

#: Layers are the ``src/repro`` packages.  First matching prefix wins;
#: paths are relative to ``src/repro``.  A module matching no rule fails
#: the self-test, so a new package must be given a layer here.
LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("core/", "core"),
    ("storage/wal.py", "storage.wal"),
    ("storage/group_commit.py", "storage.wal"),
    ("storage/", "storage"),
    ("net/serde.py", "net.serde"),
    ("net/socket_transport.py", "net.socket"),
    ("net/host.py", "net.socket"),
    ("net/", "net"),
    ("replication/", "replication"),
    ("cluster/", "cluster"),
    ("system.py", "cluster"),
    ("config.py", "cluster"),
    ("healing/", "healing"),
    ("metrics/", "metrics"),
    ("workloads/", "workloads"),
    ("harness/", "harness"),
    ("faults/", "harness"),
    ("cli.py", "harness"),
    ("__main__.py", "harness"),
    ("__init__.py", "harness"),
)

#: ``python`` collects builtins and the standard library; the ledger's
#: own driver code counts as ``harness``.
LAYERS: Tuple[str, ...] = (
    "sim", "core", "storage", "storage.wal", "net", "net.serde",
    "net.socket", "replication", "cluster", "healing", "metrics",
    "workloads", "harness", "python",
)


def layer_of(relative_path: str) -> Optional[str]:
    """Layer of a module path relative to ``src/repro`` (None: no rule)."""
    for prefix, layer in LAYER_RULES:
        if relative_path.startswith(prefix):
            return layer
    return None


#: Public boundary functions followed through the profile:
#: metric prefix -> ((module path under src/repro, function name), ...).
#: Several entries are summed (the two transport backends share one row).
BOUNDARIES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "net.Transport.send": (
        ("net/network.py", "send"), ("net/socket_transport.py", "send"),
    ),
    "net.RpcEndpoint.call": (("net/rpc.py", "call"),),
    "net.serde.encode_envelope": (("net/serde.py", "encode_envelope"),),
    "net.serde.decode_envelope": (("net/serde.py", "decode_envelope"),),
    "storage.MultiVersionStore.install": (("storage/store.py", "install"),),
    "storage.MultiVersionStore.vas_remove_txn": (
        ("storage/store.py", "vas_remove_txn"),
    ),
    "storage.LockTable.acquire_write_all": (
        ("storage/locks.py", "acquire_write_all"),
    ),
    "storage.wal.WriteAheadLog.append": (("storage/wal.py", "append"),),
    "storage.wal.WalFlusher.ensure_durable": (
        ("storage/group_commit.py", "ensure_durable"),
    ),
    "replication.replicate_prepare": (
        ("replication/shard.py", "replicate_prepare"),
    ),
    "replication.replicate_decision": (
        ("replication/shard.py", "replicate_decision"),
    ),
    "replication.on_replicate": (
        ("replication/shard.py", "on_replicate"),
    ),
    "core.fwkv.select_read_only_version": (
        ("core/fwkv/visibility.py", "select_read_only_version"),
    ),
    "core.VectorClock.merge": (
        ("core/vector_clock.py", "merge"), ("core/vector_clock.py", "merge_seq"),
    ),
}

#: Counters read from public stats after an untraced run.
COUNTERS: Tuple[Metric, ...] = (
    Metric("harness.machine_speed_x", "x", "higher"),
    Metric("sim.events_per_commit", "count", "lower"),
    Metric("sim.cpu_utilization_mean", "fraction", "higher"),
    Metric("net.msgs_per_commit", "count", "lower"),
    Metric("net.propagate_msgs_per_commit", "count", "lower"),
    Metric("net.remove_msgs_per_commit", "count", "lower"),
    Metric("net.bytes_per_commit", "B", "lower"),
    Metric("net.rpc_retries", "count", "lower"),
    Metric("net.rpc_timeouts", "count", "lower"),
    Metric("net.msgs_dropped", "count", "lower"),
    Metric("net.socket.loop_thread_cpu_s", "s", "lower"),
    Metric("core.abort_rate", "fraction", "lower"),
    Metric("core.ro_stale_read_fraction", "fraction", "lower"),
    Metric("core.read_stalls_per_commit", "count", "lower"),
    Metric("core.read_stall_mean_us", "us", "lower"),
    Metric("core.vas_inspected_mean", "count", "lower"),
    Metric("core.antidep_mean", "count", "lower"),
    Metric("core.ro_read_gap_mean", "count", "lower"),
    Metric("core.first_contact_fresh_fraction", "fraction", "higher"),
    Metric("storage.wal.syncs_per_commit", "count", "lower"),
    Metric("storage.wal.records_per_sync", "count", "higher"),
    Metric("replication.records_per_commit", "count", "lower"),
    Metric("replication.lag_max", "count", "lower"),
    Metric("replication.sync_degraded", "count", "lower"),
)

#: Direct timed loops on public functions (``micro.py`` holds the closures).
MICRO: Tuple[Metric, ...] = tuple(
    Metric(name, unit, "lower") for name, unit in (
        ("sim.call_soon_ns", "ns"),
        ("sim.timer_cancel_ns", "ns"),
        ("sim.process_switch_ns", "ns"),
        ("core.vc_merge_ns", "ns"),
        ("core.vc_leq_ns", "ns"),
        ("core.fwkv_select_ro_ns", "ns"),
        ("core.walter_select_ns", "ns"),
        ("storage.chain_install_ns", "ns"),
        ("storage.chain_by_vid_ns", "ns"),
        ("storage.vas_remove_ns", "ns"),
        ("storage.lock_acquire_release_ns", "ns"),
        ("storage.wal.append_ns", "ns"),
        ("storage.wal.group_sync_ns_per_record", "ns"),
        ("net.send_deliver_ns", "ns"),
        ("net.rpc_roundtrip_ns", "ns"),
        ("net.serde.encode_frame_propagate_ns", "ns"),
        ("net.serde.encode_frame_read_ns", "ns"),
        ("net.serde.decode_envelope_propagate_ns", "ns"),
        ("net.serde.decode_envelope_read_ns", "ns"),
        ("net.serde.frame_decoder_ns_per_frame", "ns"),
        ("net.socket.loopback_rtt_us", "us"),
        ("replication.stream_ns_per_record", "ns"),
        ("cluster.shardmap_site_ns", "ns"),
        ("cluster.ring_site_ns", "ns"),
        ("metrics.on_commit_ns", "ns"),
        ("workloads.ycsb_generate_ns", "ns"),
        ("workloads.zipf_sample_ns", "ns"),
    )
)


def profile_metrics() -> List[Metric]:
    """Names the ``--trace`` profile pass reports."""
    out = [
        Metric("trace_overhead_x", "x", "lower"),
        Metric("trace_self_time_coverage", "fraction", "higher"),
    ]
    for layer in LAYERS:
        out.append(Metric(f"{layer}.self_ms_per_kcommit", "ms", "lower"))
        out.append(Metric(f"{layer}.calls_per_commit", "count", "lower"))
    for name in BOUNDARIES:
        out.append(Metric(f"{name}.calls_per_commit", "count", "lower"))
        out.append(Metric(f"{name}.cum_ms_per_kcommit", "ms", "lower"))
    return out


def per_layer() -> List[Metric]:
    return profile_metrics() + list(COUNTERS) + list(MICRO)


def manifest() -> dict:
    """The ``/BENCHMARK.json`` document these tables describe."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS
            if w.deterministic
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in per_layer()
        ],
    }
