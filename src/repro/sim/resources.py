"""Finite-capacity resources (node CPUs) for the simulation kernel."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


class CpuResource:
    """A pool of identical servers with a FIFO run queue.

    Protocol handlers charge their processing cost through
    ``yield from cpu.consume(cost)``.  Saturated nodes build queues and
    per-operation latency grows with load -- the effect that turns
    per-transaction work differences into throughput differences under
    closed-loop clients.

    Handlers must not hold a core across blocking waits: acquire-compute-
    release is a single ``consume`` call, and lock or condition waits
    happen outside it.
    """

    __slots__ = ("sim", "cores", "_busy", "_queue", "busy_time")

    def __init__(self, sim: "Simulator", cores: int) -> None:
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.sim = sim
        self.cores = cores
        self._busy = 0
        self._queue: Deque[Event] = deque()
        #: Accumulated core-seconds consumed (utilisation accounting).
        self.busy_time = 0.0

    def consume(self, cost: float):
        """Generator subroutine: occupy one core for ``cost`` seconds."""
        if cost <= 0:
            return
        self.busy_time += cost
        if self._busy < self.cores:
            self._busy += 1
        else:
            gate = Event(self.sim, name="cpu-wait")
            self._queue.append(gate)
            yield gate  # a finishing job hands its core over directly
        try:
            yield cost  # a bare delay: nothing else waits on it
        finally:
            if self._queue:
                self._queue.popleft().succeed(None)
            else:
                self._busy -= 1

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def utilization(self, elapsed: float) -> float:
        """Mean core utilisation over ``elapsed`` virtual seconds."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.cores)
