"""Integration tests for the experiment harness."""

import pytest

from repro import ClusterConfig, RunConfig
from repro.harness import run_experiment
from repro.harness.report import ascii_chart, format_table
from repro.harness.runner import (
    DEFAULT_RETRY_BACKOFF,
    RETRY_BACKOFF_CAP,
    retry_delay,
)
from repro.sim.rng import make_rng
from repro.workloads import YCSBConfig, YCSBWorkload

from tests.harness.oracle import assert_psi


def small_run(protocol="fwkv", seed=1, **cluster_kwargs):
    workload = YCSBWorkload(YCSBConfig(num_keys=500, read_only_fraction=0.5))
    return run_experiment(
        protocol,
        workload,
        ClusterConfig(num_nodes=3, clients_per_node=2, seed=seed, **cluster_kwargs),
        RunConfig(duration=0.01, warmup=0.003),
        params={"tag": "unit"},
    )


def test_runner_produces_commits_and_metrics():
    result = small_run()
    assert result.protocol == "fwkv"
    assert result.workload == "ycsb"
    assert result.params == {"tag": "unit"}
    assert result.metrics["commits"] > 10
    assert result.throughput_ktps > 0
    assert 0.0 <= result.abort_rate < 1.0
    assert result.wall_seconds > 0


def test_runner_is_deterministic():
    first = small_run(seed=9)
    second = small_run(seed=9)
    assert first.metrics["commits"] == second.metrics["commits"]
    assert first.metrics["aborts"] == second.metrics["aborts"]


def test_retry_delay_is_truncated_binary_exponential():
    """Attempt ``n`` waits in ``[b*s, 2*b*s)`` with ``s = min(2**(n-1),
    CAP)``: doubling per lost attempt, flat from the cap on."""
    b = DEFAULT_RETRY_BACKOFF
    rng = make_rng(3, "retry-policy")
    cap_attempt = RETRY_BACKOFF_CAP.bit_length()  # 2**(n-1) == CAP
    assert 2 ** (cap_attempt - 1) == RETRY_BACKOFF_CAP
    # The exponent is capped, not the power: attempt 10**12 costs what
    # attempt 8 does (``2 ** (10**12 - 1)`` would not fit in memory).
    for attempts in list(range(1, cap_attempt + 4)) + [50, 1000, 10**12]:
        scale = 2 ** min(attempts - 1, cap_attempt - 1)
        for _ in range(50):
            delay = retry_delay(b, attempts, rng)
            assert b * scale <= delay < 2 * b * scale, attempts
    # Stops growing at the cap: same draw, same delay from there on.
    at_cap, beyond = (
        retry_delay(b, attempts, make_rng(4, "cap"))
        for attempts in (cap_attempt, cap_attempt + 7)
    )
    assert at_cap == beyond


def test_retry_delay_draws_once_and_first_retry_is_the_old_formula():
    rng = make_rng(9, "client", 0, 0)
    reference = make_rng(9, "client", 0, 0)
    b = DEFAULT_RETRY_BACKOFF
    # The pre-PR-13 pause was ``backoff * (1 + rng.random())`` every time.
    assert retry_delay(b, 1, rng) == b * (1.0 + reference.random())
    for attempts in (2, 5, 40):
        retry_delay(b, attempts, rng)
        reference.random()
    # One draw per retry: the two streams are still aligned.
    assert rng.random() == reference.random()


def zipf_run(seed, duration=0.05, record_history=False):
    """A small hot-key cluster: zipf s=1.1 over 2k keys, 4 x 5 clients."""
    workload = YCSBWorkload(
        YCSBConfig(
            num_keys=2000, read_only_fraction=0.5, keys_per_txn=2,
            distribution="zipf", zipf_s=1.1,
        )
    )
    return run_experiment(
        "fwkv",
        workload,
        ClusterConfig(num_nodes=4, clients_per_node=5, seed=seed),
        RunConfig(duration=duration, warmup=0.005),
        record_history=record_history,
    )


def test_contended_runs_repeat_exactly_per_seed():
    """One seeded draw per retry keeps the client streams aligned: two
    runs of one seed agree on commits, aborts and executed events."""
    def run():
        result = zipf_run(seed=5, duration=0.01)
        return (
            result.metrics["commits"],
            result.metrics["aborts"],
            result.cluster.sim.executed_count,
        )

    first = run()
    assert first[1] > 0, "the shape must actually retry"
    assert run() == first


def test_hot_key_contention_stays_out_of_the_retry_storm():
    """Zipf s=1.1: with attempt-scaled back-off and validate-before-lock
    the abort rate is ~0.24 (three seeds: 0.23-0.24); the flat 100-200 us
    retry of the parent commit gave 0.55-0.57 on the same inputs."""
    result = zipf_run(seed=3, record_history=True)
    metrics = result.metrics
    assert metrics["commits"] > 1200  # parent: 932
    assert metrics["abort_rate"] < 0.35
    assert metrics["attempts_per_commit"]["mean"] < 1.5
    # The run's own output names the key the aborts are made of.
    hottest, aborted = metrics["abort_hot_keys"][0]
    assert hottest == "u0" and aborted > metrics["aborts"] / 2
    assert_psi(result.cluster)


def test_different_seeds_differ():
    # Not guaranteed in principle, but overwhelmingly likely.
    a = small_run(seed=1).metrics["commits"]
    b = small_run(seed=2).metrics["commits"]
    c = small_run(seed=3).metrics["commits"]
    assert len({a, b, c}) > 1


def test_measurement_window_excludes_warmup():
    workload = YCSBWorkload(YCSBConfig(num_keys=500))
    result = run_experiment(
        "fwkv",
        workload,
        ClusterConfig(num_nodes=2, clients_per_node=1, seed=4),
        RunConfig(duration=0.004, warmup=0.004),
    )
    # Roughly half the executed transactions fall inside the window.
    window = result.cluster.metrics
    assert window.window_start == pytest.approx(0.004)
    assert result.metrics["commits"] > 0


def test_all_protocols_run_under_harness():
    for protocol in ("fwkv", "walter", "2pc"):
        result = small_run(protocol=protocol)
        assert result.metrics["commits"] > 0, protocol


def test_max_retries_caps_attempts():
    """With max_retries=0 a client gives up after the first abort."""
    workload = YCSBWorkload(YCSBConfig(num_keys=4, read_only_fraction=0.0))
    result = run_experiment(
        "fwkv",
        workload,
        ClusterConfig(num_nodes=2, clients_per_node=3, seed=5),
        RunConfig(duration=0.01, warmup=0.0, max_retries=0),
    )
    # Tiny key space forces conflicts; attempts per commit stay at 1.
    assert result.metrics["aborts"] > 0
    assert result.metrics["commits"] > 0
    assert result.metrics["latency"]["count"] == result.metrics["commits"]


def test_cpu_utilization_reported():
    result = small_run()
    util = result.metrics["mean_cpu_utilization"]
    assert 0.0 < util < 1.0


def test_format_table_alignment():
    rows = [
        {"a": 1, "b": 2.34567, "c": "xy"},
        {"a": 10, "b": 0.5, "c": "z"},
    ]
    text = format_table(rows, ["a", "b", "c"], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1]
    assert "2.346" in text
    assert format_table([], ["a"]) == "(no rows)"


def test_ascii_chart_scales_bars_to_peak_and_sorts_by_x():
    rows = [
        {"x": 10, "y": 200.0, "p": "walter"},
        {"x": 5, "y": 100.0, "p": "walter"},
        {"x": 5, "y": 50.0, "p": "2pc"},
    ]
    chart = ascii_chart(rows, "x", "y", group=lambda r: r["p"], width=10, title="T")
    lines = chart.splitlines()
    assert lines[0] == "T"
    bars = [(line.split()[0] + line.split()[1], line.count("#")) for line in lines[1:]]
    # the peak fills the width; round(50/200 * 10) is banker's rounding
    assert bars == [("walter5", 5), ("walter10", 10), ("2pc5", 2)]


def test_ascii_chart_empty():
    assert "(no data)" in ascii_chart([], "x", "y", group=str)
