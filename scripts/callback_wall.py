#!/usr/bin/env python3
"""Where a simulated run's wall time goes, scheduler entry by entry.

    python3 scripts/callback_wall.py ycsb_uniform [--seed 7]

Builds one ledger workload the way the benchmark does
(``benchmarks/ledger/measure.timed_build``, clients as in ``drive``: one
repeat, warm-up included), then wraps every callback the simulator
schedules -- from outside, by shadowing its four scheduling methods on
the instance; no ``src/`` edit -- and times each scheduler entry.  An
entry's time includes whatever it runs in place (a waiter ``_wake``
resumes, a handler a delivery starts), so the rows add up to the run.

Rows are labelled by what the entry is: ``deliver <message type>``,
``delay -> <process>`` (a bare ``yield d`` expiring and resuming the
process), ``timeout expiry`` (a ``sim.timeout`` event's), ``step
<process>`` (a queued resume or a process start), else the callback's
name; process names lose their node and client numbers.  Per row:
entries and microseconds per commit, microseconds per entry, share.

The wrapper costs each entry a fixed overhead, so the run is also timed
once unwrapped (same seed, fresh build); both walls are printed with
the machine speed of the reference loop (1.0 = the ledger's nominal
box), which the absolute microseconds should be read against.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "ledger")]

from measure import Reference, sub_seed, timed_build  # noqa: E402
from registry import DEFAULT_SEED, WORKLOADS_BY_NAME  # noqa: E402
from repro.harness.runner import DEFAULT_RETRY_BACKOFF, client_loop  # noqa: E402


def label(fn, args) -> str:
    """What one scheduler entry is, from its callback and arguments."""
    name = getattr(fn, "__qualname__", type(fn).__name__)
    if name == "Simulator._wake":
        name = f"delay -> {args[0].__self__.name}"
    elif name == "Event.succeed_tail":
        name = "timeout expiry"
    elif name.endswith("._deliver"):
        name = f"deliver {args[0].msg_type}"
    elif name == "Process._step":
        name = f"step {fn.__self__.name}"
    return re.sub(r"\bn\d+:|-\d+", "", name)


def instrument(sim, wall: Counter, count: Counter) -> None:
    """Shadow ``sim``'s scheduling methods so each entry is timed."""
    clock = time.perf_counter_ns

    def timed(fn, args):
        # Labelled when it runs, before its clock starts: an entry's time
        # must not include labelling the entries it schedules.
        def entry(*call_args):
            key = label(fn, args)
            started = clock()
            fn(*call_args)
            wall[key] += clock() - started
            count[key] += 1

        return entry

    call_at, call_soon = sim.call_at, sim.call_soon
    post_at, post_soon = sim._post_at, sim._post_soon
    sim.call_at = lambda when, fn, *a: call_at(when, timed(fn, a), *a)
    sim.call_soon = lambda fn, *a: call_soon(timed(fn, a), *a)
    sim._post_at = lambda when, fn, *a: post_at(when, timed(fn, a), *a)
    sim._post_soon = lambda fn, *a: post_soon(timed(fn, a), *a)


def run_once(spec, seed: int, wall=None, count=None):
    """One repeat; ``(commits, run wall seconds)``, timing entries into
    ``wall`` / ``count`` when given."""
    cluster, workload, _setup_s, _raw_s = timed_build(spec, seed)
    try:
        if wall is not None:
            instrument(cluster.sim, wall, count)
        stop = spec.warmup + spec.duration
        config = cluster.config
        for node_id in config.node_ids:
            for client_id in range(config.clients_per_node):
                cluster.spawn(client_loop(
                    cluster, node_id, client_id, workload, stop,
                    DEFAULT_RETRY_BACKOFF, None,
                ), name=f"client-{node_id}-{client_id}")
        started = time.perf_counter()
        cluster.run(until=stop)
        elapsed = time.perf_counter() - started
        return cluster.metrics.summary()["commits"], elapsed
    finally:
        cluster.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(
        name for name, spec in WORKLOADS_BY_NAME.items()
        if spec.cluster.transport.kind == "sim"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--rows", type=int, default=16)
    args = parser.parse_args(argv)
    spec = WORKLOADS_BY_NAME[args.workload]
    seed = sub_seed(args.seed, 0)
    reference = Reference()
    for _ in range(200):
        reference.tick()
    _commits, plain_s = run_once(spec, seed)
    wall, count = Counter(), Counter()
    commits, wrapped_s = run_once(spec, seed, wall, count)
    for _ in range(200):
        reference.tick()
    total = sum(wall.values())
    print(f"[{spec.name}] sub-seed={seed} commits={commits} "
          f"machine speed={reference.speed:.2f}")
    print(f"run wall: {plain_s:.3f} s unwrapped, {wrapped_s:.3f} s wrapped; "
          f"{sum(count.values()) / commits:.2f} entries and "
          f"{total / 1e3 / commits:.1f} us per commit")
    print(f"  {'entry':<40}{'per commit':>11}{'us each':>9}"
          f"{'us/commit':>11}{'share':>7}")
    for key, ns in wall.most_common(args.rows):
        print(f"  {key:<40}{count[key] / commits:>11.2f}"
              f"{ns / 1e3 / count[key]:>9.2f}{ns / 1e3 / commits:>11.2f}"
              f"{ns / total:>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
