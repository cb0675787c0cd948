"""Unit tests for the accrual failure detector.

The detector is pure state over ``sim.now``, so these tests drive it
with a stub clock: arrivals and RPC-timeout strikes at chosen instants,
assertions on the resulting classification, phi score, and retry-budget
caps.  No simulator, no network.
"""

import pytest

from repro.config import HealingConfig
from repro.healing import ALIVE, DEAD, SUSPECT, FailureDetector
from repro.healing.detector import (
    DEAD_AFTER_TIMEOUTS,
    SUSPECT_AFTER_TIMEOUTS,
    SUSPECT_MAX_ATTEMPTS,
)
from repro.metrics.stats import MetricsRecorder
from repro.sim import Tracer


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


N = 4
ME = 0
PEER = 2


def build(clock=None, tracer=None, **overrides):
    config = HealingConfig(**overrides)
    return FailureDetector(clock or FakeClock(), ME, N, config, tracer=tracer)


# ----------------------------------------------------------------------
# Passive evidence: consecutive RPC-timeout strikes
# ----------------------------------------------------------------------
def test_strike_thresholds():
    detector = build()
    assert (SUSPECT_AFTER_TIMEOUTS, DEAD_AFTER_TIMEOUTS) == (2, 5)
    assert detector.state(PEER) == ALIVE
    detector.on_rpc_timeout(PEER)
    assert detector.state(PEER) == ALIVE
    detector.on_rpc_timeout(PEER)
    assert detector.state(PEER) == SUSPECT
    assert detector.is_suspect(PEER) and not detector.is_dead(PEER)
    for _ in range(2):
        detector.on_rpc_timeout(PEER)
    assert detector.state(PEER) == SUSPECT
    detector.on_rpc_timeout(PEER)
    assert detector.state(PEER) == DEAD
    assert detector.is_dead(PEER) and detector.is_suspect(PEER)


def test_arrival_clears_strikes_and_suspicion():
    metrics = MetricsRecorder(sim=None)  # counted with no trace kind enabled
    detector = build(tracer=Tracer(None, metrics))
    for _ in range(5):
        detector.on_rpc_timeout(PEER)
    assert detector.state(PEER) == DEAD
    detector.on_arrival(PEER)
    assert detector.state(PEER) == ALIVE
    # One fresh strike after the arrival is not suspicion again.
    detector.on_rpc_timeout(PEER)
    assert detector.state(PEER) == ALIVE
    # Strikes climbed ALIVE -> SUSPECT -> DEAD, then one clear.
    assert metrics.counters["suspicions_raised"] == 2
    assert metrics.counters["suspicions_cleared"] == 1


def test_strikes_are_per_peer():
    detector = build()
    for _ in range(5):
        detector.on_rpc_timeout(PEER)
    assert detector.state(PEER) == DEAD
    assert all(
        detector.state(peer) == ALIVE for peer in range(N) if peer != PEER
    )


def test_self_evidence_is_ignored():
    detector = build()
    for _ in range(10):
        detector.on_rpc_timeout(ME)
    detector.on_arrival(ME)
    assert detector.state(ME) == ALIVE
    assert detector.phi(ME) == 0.0


# ----------------------------------------------------------------------
# Accrual evidence: phi over the observed inter-arrival mean
# ----------------------------------------------------------------------
def test_phi_needs_two_arrivals():
    clock = FakeClock()
    detector = build(clock, heartbeat_interval=1.0)
    assert detector.phi(PEER) == 0.0
    detector.on_arrival(PEER)
    clock.now = 100.0  # one arrival fixes no mean interval yet
    assert detector.phi(PEER) == 0.0
    assert detector.state(PEER) == ALIVE


def test_phi_scores_silence_in_mean_intervals():
    clock = FakeClock()
    detector = build(clock, heartbeat_interval=1.0)
    for tick in range(4):  # arrivals at 0, 1, 2, 3: mean interval 1.0
        clock.now = float(tick)
        detector.on_arrival(PEER)
    clock.now = 5.0
    assert detector.phi(PEER) == pytest.approx(2.0)
    assert detector.state(PEER) == ALIVE
    clock.now = 3.0 + 4.0  # phi = 4 >= phi_suspect (3)
    assert detector.state(PEER) == SUSPECT
    clock.now = 3.0 + 9.0  # phi = 9 >= phi_dead (8)
    assert detector.state(PEER) == DEAD
    # The next arrival restores trust and re-seeds the mean.
    detector.on_arrival(PEER)
    assert detector.state(PEER) == ALIVE


def test_phi_disarmed_without_heartbeats():
    """Purely passive configs never accrue time-based suspicion."""
    clock = FakeClock()
    detector = build(clock)  # heartbeat_interval=None
    clock.now = 1.0
    detector.on_arrival(PEER)
    clock.now = 2.0
    detector.on_arrival(PEER)
    clock.now = 1e9  # an eternity of silence
    assert detector.state(PEER) == ALIVE


def test_slow_but_alive_peer_adapts():
    """The accrual mean tracks a consistently slow peer, so the silence
    a fixed timeout would misread as death scores as normal."""
    clock = FakeClock()
    detector = build(clock, heartbeat_interval=1.0)
    # A peer that beacons every 10 time units, not every 1.
    for tick in range(0, 40, 10):
        clock.now = float(tick)
        detector.on_arrival(PEER)
    clock.now = 30.0 + 15.0  # silence of 1.5 mean intervals
    assert detector.phi(PEER) == pytest.approx(1.5)
    assert detector.state(PEER) == ALIVE


def test_foreground_burst_does_not_turn_a_short_pause_into_death():
    """Every arrival feeds the mean, so a fan-out burst drags it far
    below the heartbeat interval; silence is still scored against the
    one beacon per interval a live peer owes.  (The red cell
    ``test_double_failure_keeps_keys_alive[19]``: a 0.4 ms pause after
    a commit's burst read as phi >= 8 at the lone surviving voter,
    which deposed a live node.)"""
    clock = FakeClock()
    detector = build(clock, heartbeat_interval=1e-3)
    for tick in range(5):  # beacons: mean interval 1 ms
        clock.now = tick * 1e-3
        detector.on_arrival(PEER)
    for burst in range(1, 40):  # a burst, 5 us apart: mean ~ 5 us
        clock.now = 4e-3 + burst * 5e-6
        detector.on_arrival(PEER)
    clock.now += 0.4e-3  # 80 burst intervals, 0.4 heartbeat intervals
    assert detector.phi(PEER) == pytest.approx(0.4)
    assert detector.state(PEER) == ALIVE
    clock.now += 8e-3  # eight missed beacons are still death
    assert detector.state(PEER) == DEAD


# ----------------------------------------------------------------------
# Consumers: the RPC retry-budget cap
# ----------------------------------------------------------------------
def test_attempts_budget_by_state():
    detector = build()
    assert SUSPECT_MAX_ATTEMPTS == 2
    assert detector.attempts_budget(PEER, 5) == 5
    detector.on_rpc_timeout(PEER)
    detector.on_rpc_timeout(PEER)  # SUSPECT
    assert detector.attempts_budget(PEER, 5) == 2
    assert detector.attempts_budget(PEER, 1) == 1
    for _ in range(3):
        detector.on_rpc_timeout(PEER)  # DEAD
    assert detector.attempts_budget(PEER, 5) == 1
    detector.on_arrival(PEER)
    assert detector.attempts_budget(PEER, 5) == 5
