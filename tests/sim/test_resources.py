"""Unit tests for the finite-CPU resource."""

import pytest

from repro.sim import CpuResource, Simulator


def test_zero_cost_consumes_nothing():
    sim = Simulator()
    cpu = CpuResource(sim, cores=1)

    def job():
        yield from cpu.consume(0.0)
        return sim.now

    assert sim.run_process(job()) == 0.0


def test_parallelism_up_to_core_count():
    sim = Simulator()
    cpu = CpuResource(sim, cores=2)
    finished = []

    def job(name):
        yield from cpu.consume(4.0)
        finished.append((name, sim.now))

    for name in ("a", "b", "c"):
        sim.spawn(job(name))
    sim.run()
    # Two jobs run in parallel; the third queues behind them.
    assert finished == [("a", 4.0), ("b", 4.0), ("c", 8.0)]


def test_fifo_queueing_order():
    sim = Simulator()
    cpu = CpuResource(sim, cores=1)
    finished = []

    def job(name, cost, delay):
        yield sim.timeout(delay)
        yield from cpu.consume(cost)
        finished.append(name)

    sim.spawn(job("first", 3.0, 0.0))
    sim.spawn(job("second", 1.0, 0.5))
    sim.spawn(job("third", 1.0, 1.0))
    sim.run()
    assert finished == ["first", "second", "third"]


def test_no_overcommit_under_churn():
    """The busy count never exceeds the core count, and drains to zero."""
    sim = Simulator()
    cpu = CpuResource(sim, cores=3)

    def tracked_job(delay, cost):
        yield sim.timeout(delay)
        assert cpu._busy <= 3
        yield from cpu.consume(cost)
        assert cpu._busy <= 3

    for i in range(20):
        sim.spawn(tracked_job(i * 0.3, 1.0))
    sim.run()
    assert cpu._busy == 0
    assert cpu.queue_length == 0


def test_utilization_accounting():
    sim = Simulator()
    cpu = CpuResource(sim, cores=2)

    def job():
        yield from cpu.consume(3.0)

    sim.spawn(job())
    sim.spawn(job())
    sim.run()
    assert cpu.busy_time == 6.0
    assert cpu.utilization(elapsed=3.0) == pytest.approx(1.0)
    assert cpu.utilization(elapsed=6.0) == pytest.approx(0.5)
    assert cpu.utilization(elapsed=0.0) == 0.0


def test_invalid_core_count_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        CpuResource(sim, cores=0)
