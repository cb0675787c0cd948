"""The one runner: set up a workload, drive it, read the metrics.

Everything is measured from outside through public objects -- ``Cluster``,
``cluster.metrics.summary()``, ``cluster.network.stats``,
``cluster.sim.executed_count`` -- so the program under test is untouched.

All load is closed-loop (the paper's model): each client coroutine issues
its next transaction when the previous one returns and retries aborts.
One process, one thread on the sim workloads; the socket workload adds
exactly the transport's asyncio thread.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import heapq
import itertools
import resource
import statistics
import threading
import time
from typing import Dict, List, Optional

from repro.harness.runner import DEFAULT_RETRY_BACKOFF, client_loop
from repro.metrics.psi_checker import check_no_read_skew, check_site_order
from repro.system import Cluster
from repro.workloads.ycsb import YCSBWorkload

from registry import GATED, Workload

#: Setup is cheap next to a run, so every run reports the median of at
#: least this many set-ups (extra ones are set-up only).
MIN_SETUP_SAMPLES = 5
#: Seed index of the oracle runs, clear of any repeat index.
GATE_INDEX = 999
IO_THREAD_NAME = "fwkv-socket-io"


def sub_seed(seed: int, index: int) -> int:
    """Seed of one repeat.  Repeats of a run draw different inputs from
    the run's ``--seed``, so a run's medians average over inputs instead
    of measuring one draw ``K`` times."""
    return seed * 1000 + index


class Reference:
    """The machine-speed yardstick for wall metrics.

    This box's speed drifts by 25-45% over minutes (shared host), which
    would drown any wall-time bound.  A fixed, stdlib-only work loop is
    therefore run in ~1 ms chunks *between* slices of every timed phase,
    so it sees the same machine state as the phase itself; the phase's
    seconds are then scaled to what they would be at the loop's nominal
    speed.  The loop shares no code with ``src/``, so a change there
    moves the phase and not the yardstick.  (Measured: single-repeat
    spread of the uniform run phase 11% raw, 4% scaled.)
    """

    #: Seconds one chunk takes on the quiet reference 2-core box.
    CHUNK_NOMINAL_S = 1.17e-3

    def __init__(self) -> None:
        self.heap: list = []
        self.table: dict = {}
        self.seconds = 0.0
        self.chunks = 0

    def tick(self) -> None:
        """One chunk: heap, dict and short-lived allocation traffic."""
        heap, table = self.heap, self.table
        push, pop = heapq.heappush, heapq.heappop
        started = time.perf_counter()
        for i in range(1500):
            key = (i * 7919) & 1023
            entry = (key, i, [i, key])
            push(heap, entry)
            table[key] = entry
            if len(heap) > 64:
                pop(heap)
        self.seconds += time.perf_counter() - started
        self.chunks += 1

    @property
    def speed(self) -> float:
        """Machine speed over the ticks so far (1.0 = nominal)."""
        return self.chunks * self.CHUNK_NOMINAL_S / self.seconds


def paced(steps, reference: Optional[Reference]) -> float:
    """Run ``steps`` in order, timing only them; tick in between."""
    total = 0.0
    for step in steps:
        started = time.perf_counter()
        step()
        total += time.perf_counter() - started
        if reference is not None:
            reference.tick()
    return total


#: Keys per ``load_many`` call, and run-phase slices: the grain at which
#: the reference loop is interleaved with set-up and run.
LOAD_BATCH = 2048
RUN_SLICES = 100


def timed_build(spec: Workload, seed: int, record_history: bool = False):
    """Set-up phase: workload tables, cluster wiring, initial data load.
    Returns ``(cluster, workload, seconds at nominal speed, raw seconds)``."""
    gc.collect()
    built = []

    def wire():
        workload = YCSBWorkload(spec.ycsb)
        cluster = Cluster(
            spec.protocol,
            dataclasses.replace(spec.cluster, seed=seed),
            record_history=record_history,
        )
        built.extend((cluster, workload, iter(workload.load_items())))

    def load():
        cluster, _workload, items = built
        cluster.load_many(itertools.islice(items, LOAD_BATCH))

    batches = -(-spec.ycsb.num_keys // LOAD_BATCH)
    reference = Reference()
    raw = paced([wire] + [load] * batches, reference)
    cluster, workload, _items = built
    return cluster, workload, raw * reference.speed, raw


def _io_thread_cpu() -> float:
    """CPU seconds consumed so far by live socket-transport I/O threads."""
    total = 0.0
    for thread in threading.enumerate():
        if thread.name == IO_THREAD_NAME and thread.ident is not None:
            clock = time.pthread_getcpuclockid(thread.ident)
            total += time.clock_gettime(clock)
    return total


def drive(cluster: Cluster, workload, warmup: float, duration: float,
          profiler=None) -> Dict[str, float]:
    """Run phase: spawn the closed-loop clients and run to ``warmup +
    duration``.  Only this phase is timed (and, if given, profiled).

    A simulated run advances in ``RUN_SLICES`` equal steps of virtual
    time -- the same events in the same order as one ``run(until=stop)``
    -- with the reference loop in between; a profiled run keeps the
    slices and drops the loop.  A socket run is bound to the wall clock,
    so it runs in one piece, unscaled.
    """
    stop = warmup + duration
    cluster.metrics.open_window(warmup, stop)
    config = cluster.config
    for node_id in config.node_ids:
        for client_id in range(config.clients_per_node):
            cluster.spawn(
                client_loop(cluster, node_id, client_id, workload, stop,
                            DEFAULT_RETRY_BACKOFF, None),
                name=f"client-{node_id}-{client_id}",
            )
    simulated = config.transport.kind == "sim"
    slices = RUN_SLICES if simulated else 1
    steps = [
        functools.partial(cluster.run, until=stop * index / slices)
        for index in range(1, slices + 1)
    ]
    reference = Reference() if simulated and profiler is None else None
    io_cpu = _io_thread_cpu()
    # Same collector discipline as repro.harness.runner.run_experiment:
    # the loaded keyspace is static, keep it out of every gen-2 pass.
    gc.freeze()
    if profiler is not None:
        profiler.enable()
    try:
        wall = paced(steps, reference)
    finally:
        if profiler is not None:
            profiler.disable()
        gc.unfreeze()
    return {
        "run_wall_s": wall,
        "machine_speed": reference.speed if reference is not None else 1.0,
        "io_thread_cpu_s": _io_thread_cpu() - io_cpu,
        "stop": stop,
    }


def observe(cluster: Cluster, run: Dict[str, float]) -> Dict[str, object]:
    """One repeat's row: deterministic fields, end-to-end values, counters.

    Per-commit ratios divide whole-run counts (warmup included) by the
    window's commits; warmup is a fixed share of every repeat.
    """
    summary = cluster.metrics.summary()
    stats = cluster.network.stats
    commits = summary["commits"]
    # A run that commits nothing is reported (``run_problems``), not
    # crashed on: its per-commit ratios read 0.
    per_commit = 1.0 / commits if commits else 0.0
    ro, update = summary["ro_latency_percentiles"], summary["update_latency_percentiles"]
    utilization = cluster.cpu_utilization(run["stop"])
    first_contact = summary["first_contact_reads"]
    wal_syncs = summary["wal_syncs"]
    row = {
        "commits": commits,
        "aborts": summary["aborts"],
        "events": cluster.sim.executed_count,
        "failed": summary["aborted_timeout"],
        "run_wall_s": run["run_wall_s"],
        # end to end
        "commits_per_wall_s_norm":
            commits / (run["run_wall_s"] * run["machine_speed"]),
        "virt_throughput_ktps": summary["throughput"] / 1e3,
        "attempts_per_commit":
            (commits + summary["aborts"]) * per_commit,
        "ro_latency_p50_us": ro["p50"] * 1e6,
        "ro_latency_p99_us": ro["p99"] * 1e6,
        "update_latency_p50_us": update["p50"] * 1e6,
        "update_latency_p99_us": update["p99"] * 1e6,
        "ro_fresh_read_fraction": 1.0 - summary["stale_read_fraction"],
        "abort_rate": summary["abort_rate"],
        "ro_stale_read_fraction": summary["stale_read_fraction"],
        # counters
        "harness.machine_speed_x": run["machine_speed"],
        "sim.events_per_commit": cluster.sim.executed_count * per_commit,
        "sim.cpu_utilization_mean": sum(utilization) / len(utilization),
        "net.msgs_per_commit": stats.messages_sent * per_commit,
        "net.propagate_msgs_per_commit":
            stats.messages_by_type["Propagate"] * per_commit,
        "net.remove_msgs_per_commit":
            stats.messages_by_type["Remove"] * per_commit,
        "net.bytes_per_commit": stats.bytes_hint * per_commit,
        "net.rpc_retries": stats.rpc_retries,
        "net.rpc_timeouts": stats.rpc_timeouts,
        "net.msgs_dropped": stats.messages_dropped,
        "net.socket.loop_thread_cpu_s": run["io_thread_cpu_s"],
        "core.abort_rate": summary["abort_rate"],
        "core.ro_stale_read_fraction": summary["stale_read_fraction"],
        "core.read_stalls_per_commit": summary["read_stalls"] * per_commit,
        "core.read_stall_mean_us": summary["read_stall_time"]["mean"] * 1e6,
        "core.vas_inspected_mean": summary["vas_inspected"]["mean"],
        "core.antidep_mean": summary["antidep_collected"]["mean"],
        "core.ro_read_gap_mean": summary["ro_read_gap"]["mean"],
        "core.first_contact_fresh_fraction":
            summary["first_contact_fresh"] / first_contact
            if first_contact else 1.0,
        "storage.wal.syncs_per_commit": wal_syncs * per_commit,
        "storage.wal.records_per_sync":
            summary["wal_records_synced"] / wal_syncs if wal_syncs else 0.0,
        "replication.records_per_commit":
            summary["replication_records_streamed"] * per_commit,
        "replication.lag_max": summary["replication_lag_max"],
        "replication.sync_degraded": summary["replication_sync_degraded"],
    }
    return row


def repeat(spec: Workload, seed: int, profiler=None, check=None) -> Dict[str, object]:
    """One fresh cluster, set up, driven and observed.

    By default an equal-work repeat (full warmup + duration).  With
    ``check`` it is a gate run instead: short, history-recording, and
    ``check(cluster)`` inspects the live cluster before it is closed.
    """
    warmup, duration = (
        (spec.warmup, spec.duration) if check is None
        else (0.0, spec.gate_duration)
    )
    cluster, workload, setup_s, setup_raw_s = timed_build(
        spec, seed, record_history=check is not None
    )
    try:
        row = observe(cluster, drive(cluster, workload, warmup, duration, profiler))
        if check is not None:
            check(cluster)
    finally:
        cluster.close()
    row.update(
        seed=seed, setup_s=setup_s, setup_raw_s=setup_raw_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return row


def fingerprint(row: Dict[str, object]) -> tuple:
    """The fields a deterministic (sim) run must reproduce exactly."""
    return (row["commits"], row["aborts"], row["events"])


def gate(spec: Workload, seed: int) -> Dict[str, object]:
    """Correctness gate: a short history-recording run through the PSI
    oracles; on a deterministic workload, run twice and compared."""
    problems: List[str] = []

    def oracles(cluster: Cluster) -> None:
        history = cluster.finalized_history()
        checks = {
            "read_skew": check_no_read_skew(history),
            "site_order": check_site_order(history, cluster.version_catalog()),
        }
        problems.extend(
            f"{name}: {violation}"
            for name, result in checks.items()
            for violation in result.violations[:3]
        )

    row = repeat(spec, seed, check=oracles)
    setups = [row["setup_s"]]
    if spec.deterministic:
        again = repeat(spec, seed, check=lambda cluster: None)
        setups.append(again["setup_s"])
        if fingerprint(again) != fingerprint(row):
            problems.append(
                f"nondeterministic: {fingerprint(row)} then {fingerprint(again)}"
            )
    problems += run_problems(row)
    return {
        "seed": seed, "commits": row["commits"],
        "problems": problems, "setup_samples_s": setups,
    }


def run_problems(row: Dict[str, object]) -> List[str]:
    """No workload injects faults, so any timeout or drop is a defect, and
    so is a run that commits nothing."""
    problems = [
        f"{name} = {row[name]} on a fault-free workload"
        for name in ("net.rpc_timeouts", "net.msgs_dropped", "failed")
        if row[name]
    ]
    if not row["commits"]:
        problems.append(f"seed {row['seed']} committed nothing")
    return problems


def summarise(samples: Dict[str, List[float]], deterministic: bool) -> Dict[str, dict]:
    """Gated metrics from their samples: the median, with quartiles.
    ``exact`` marks values a deterministic workload reproduces per seed."""
    metrics = {}
    for metric in GATED:
        values = samples[metric.name]
        if len(values) < 2:
            q1 = q3 = values[0]
        else:
            q1, _median, q3 = statistics.quantiles(values, n=4)
        metrics[metric.name] = {
            "value": statistics.median(values), "unit": metric.unit,
            "better": metric.better, "bound": metric.bound,
            "floor": metric.floor,
            "q1": q1, "q3": q3, "n": len(values),
            "exact": deterministic and not metric.wall,
        }
    return metrics


def measure(spec: Workload, seed: int, seconds: float,
            repeats: Optional[int] = None,
            round_no: Optional[int] = None) -> Dict[str, object]:
    """The untraced run: ``K`` repeats, then the gate; every metric is the
    median over the repeats (set-up: over all set-ups made).

    With ``round_no`` this process runs that one repeat only -- a full
    set interleaves the repeats of all workloads and pools them
    (``run.run_all``) -- and the gate rides with round 0.
    """
    count = repeats or spec.repeats_for(seconds)
    indices = range(count) if round_no is None else [round_no]
    # Repeats first: the process is fresh for the first one, whose
    # high-water mark is ``peak_rss_mb``.
    rows = [repeat(spec, sub_seed(seed, index)) for index in indices]
    gated = (
        gate(spec, sub_seed(seed, GATE_INDEX)) if not round_no
        else {"problems": [], "setup_samples_s": []}
    )
    setups = gated["setup_samples_s"] + [row["setup_s"] for row in rows]
    while round_no is None and len(setups) < MIN_SETUP_SAMPLES:
        cluster, _workload, setup_s, _raw = timed_build(spec, seed)
        cluster.close()
        setups.append(setup_s)
    problems = list(gated["problems"])
    for row in rows:
        problems += run_problems(row)

    samples = {m.name: [row[m.name] for row in rows] for m in GATED}
    samples["setup_s"] = setups
    # The high-water mark of a fresh process after one repeat is what a
    # run needs; later rebuilds in the same process add 0-13 MB of
    # allocator fragmentation at random (address-space layout), so they
    # are left out.
    samples["peak_rss_mb"] = [rows[0]["peak_rss_mb"]]
    return {
        "workload": spec.name, "seed": seed, "deterministic": spec.deterministic,
        "correct": not problems, "problems": problems,
        "attempted": sum(row["commits"] + row["failed"] for row in rows),
        "failed": sum(row["failed"] for row in rows),
        "metrics": summarise(samples, spec.deterministic), "samples": samples,
        "repeats": rows, "gate": gated,
    }
