"""Deterministic discrete-event simulation kernel.

This package is the execution substrate for the FW-KV reproduction: it
provides a virtual clock, generator-based processes, one-shot events,
condition variables, and simulated locks.  All scheduling is deterministic
for a fixed seed and program, which makes protocol-level tests repeatable.

The design is intentionally close to a small subset of SimPy:

* :class:`~repro.sim.simulator.Simulator` owns the event heap and clock.
* :class:`~repro.sim.events.Event` is a one-shot waitable.
* :class:`~repro.sim.process.Process` drives a generator that ``yield``\\ s
  events (or processes) to wait on them, or a ``float`` delay to pause.
* :class:`~repro.sim.condition.ConditionVariable` supports predicate waits.
* :class:`~repro.sim.locks.RWLock` is a FIFO-fair simulated lock with
  acquisition timeouts.
"""

from repro.sim.events import AllOf, Event, EventState
from repro.sim.process import PeriodicLoop, Process
from repro.sim.simulator import Simulator, Timer
from repro.sim.condition import ConditionVariable, wait_until
from repro.sim.locks import RWLock
from repro.sim.resources import CpuResource
from repro.sim.rng import derive_seed, make_rng
from repro.sim.tracing import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "ConditionVariable",
    "CpuResource",
    "Event",
    "EventState",
    "PeriodicLoop",
    "Process",
    "RWLock",
    "Simulator",
    "TraceRecord",
    "Tracer",
    "Timer",
    "derive_seed",
    "make_rng",
    "wait_until",
]
