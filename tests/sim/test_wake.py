"""The scheduler's tail wake-up rule (``Simulator._wake``; DESIGN.md,
"Ordering contract"): a waiter woken as the last act of a scheduler entry
runs inside that entry iff nothing else is due at that instant -- which
is the order the queue would have produced, one hop cheaper.

Pins for both sides of the rule, then a differential property: generated
programs run on :class:`Simulator` and on a subclass whose helper always
queues (the scheduler as it was before the rule) must produce the same
sequence of ``(virtual time, step label)`` and the same order of RNG
draws.
"""

import functools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Node
from repro.config import NetworkConfig
from repro.net import Network
from repro.sim import AllOf, ConditionVariable, RWLock, Simulator
from repro.sim.simulator import SimulationCrash


# ----------------------------------------------------------------------
# Pins
# ----------------------------------------------------------------------
def test_lone_timer_expiry_resumes_its_sleeper_in_the_same_entry():
    sim = Simulator()
    woke = []

    def sleeper():
        yield sim.timeout(1.0)
        woke.append(sim.now)

    sim.spawn(sleeper())
    sim.run(until=0.5)  # the process start; the sleeper is parked
    before = sim.executed_count
    sim.run()
    assert woke == [1.0]
    # The expiry entry alone: before the rule the sleeper's resume was a
    # second entry queued behind it.
    assert sim.executed_count - before == 1


def test_sleeper_queues_behind_another_entry_due_at_the_same_instant():
    sim = Simulator()
    order = []

    def sleeper():
        yield sim.timeout(1.0)
        order.append("sleeper")

    sim.spawn(sleeper())
    sim.run(until=0.5)
    # Scheduled after the sleeper's timer, due at the same instant: in
    # (time, sequence) order it follows the expiry and precedes the
    # resume the expiry queues -- as before the rule.
    sim.call_at(1.0, order.append, "other")
    before = sim.executed_count
    sim.run()
    assert order == ["other", "sleeper"]
    assert sim.executed_count - before == 3  # expiry, other, resume


def test_ready_work_also_sends_the_waiter_through_the_queue():
    sim = Simulator()
    order = []

    def sleeper():
        yield sim.timeout(1.0)
        order.append("sleeper")

    def fire():
        # Not in tail position, hence plain ``call_soon`` work queued
        # ahead of the expiry that follows at the same instant.
        sim.call_soon(order.append, "soon")

    sim.call_at(1.0, fire)
    sim.spawn(sleeper())
    sim.run()
    assert order == ["soon", "sleeper"]


def build_pair(**network):
    sim = Simulator()
    net = Network(sim, NetworkConfig(**network), seed=3)
    return sim, Node(sim, 0, net), Node(sim, 1, net)


def test_handler_started_at_delivery_runs_inside_the_delivery_entry():
    sim, client, server = build_pair(jitter=0.0)
    seen = []

    def handler(envelope):
        seen.append((sim.now, envelope.deliver_time))
        yield sim.timeout(1e-6)
        seen.append(sim.now)

    server.on("Work", handler)
    client.send(1, "Work", None)
    sim.run(until=10e-6)  # short of the delivery
    before = sim.executed_count
    sim.run(until=20.5e-6)  # the delivery, not yet the handler's timeout
    assert seen == [(20e-6, 20e-6)]
    assert sim.executed_count - before == 1
    sim.run()
    assert seen[-1] == pytest.approx(21e-6)


def test_crash_in_a_handler_started_in_place_surfaces_from_run():
    sim, client, server = build_pair()

    def handler(envelope):
        raise ValueError("boom")
        yield  # pragma: no cover - makes this a generator function

    server.on("Work", handler)
    client.send(1, "Work", None)
    with pytest.raises(SimulationCrash, match="boom"):
        sim.run()


def test_succeed_from_inside_a_body_always_queues():
    """Only tail position may run a waiter in place: ``succeed`` called
    mid-body leaves the waiter queued, so it cannot observe the caller's
    state half-mutated."""
    sim = Simulator()
    gate = sim.event()
    state = []

    def waiter():
        yield gate
        state.append("waiter")

    def body():
        gate.succeed()
        state.append("body, after succeed")

    sim.spawn(waiter())
    sim.run()
    sim.call_soon(body)
    sim.run()
    assert state == ["body, after succeed", "waiter"]


# ----------------------------------------------------------------------
# Differential property
# ----------------------------------------------------------------------
class QueueingSimulator(Simulator):
    """The scheduler before the rule: every wake-up takes the hop."""

    def _wake(self, fn, arg):
        self._post_soon(fn, arg)


class CountingSimulator(Simulator):
    """The real rule, counting which side each wake-up took."""

    def __init__(self, taken):
        super().__init__()
        self.taken = taken

    def _wake(self, fn, arg):
        queued = bool(self._ready) or bool(
            self._heap and self._heap[0][0] <= self.now
        )
        self.taken["queued" if queued else "inline"] += 1
        super()._wake(fn, arg)


#: Few distinct delays, repeated: equal sleeps tie.
DELAYS = (0.0, 1e-6, 1e-6, 2e-6, 3e-6)
NODES = 3
EVENTS = 3
LOCKS = 2

operation = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from(DELAYS)),
    # "Slow" then "Fast" on one link: the second is clamped to the
    # first's FIFO horizon, so the two deliveries tie.
    st.tuples(
        st.just("send"), st.integers(0, NODES - 1),
        st.sampled_from(("Fast", "Slow")),
    ),
    st.tuples(st.just("call"), st.integers(0, NODES - 1)),
    st.tuples(st.just("fanout")),
    st.tuples(st.just("wait"), st.integers(0, EVENTS - 1)),
    st.tuples(st.just("set"), st.integers(0, EVENTS - 1)),
    st.tuples(
        st.just("locked"), st.integers(0, LOCKS - 1),
        st.sampled_from("rw"), st.sampled_from(DELAYS),
    ),
    st.tuples(st.just("cv_wait")),
    st.tuples(st.just("notify")),
)
programs = st.lists(
    st.lists(operation, min_size=1, max_size=8), min_size=1, max_size=5
)


def execute(program, sim, pause=Simulator.timeout):
    """Run ``program`` on ``sim``, every pause a ``yield pause(sim, d)``;
    the observable trace and counters."""
    draws = random.Random(11)
    trace = []

    def log(label):
        trace.append((sim.now, label, draws.random()))

    net = Network(
        sim,
        NetworkConfig(
            base_latency=2e-6, jitter=1e-6, message_delays={"Slow": 3e-6}
        ),
        seed=5,
    )
    nodes = [Node(sim, n, net) for n in range(NODES)]
    events = [sim.event() for _ in range(EVENTS)]
    locks = [RWLock(sim) for _ in range(LOCKS)]
    cv = ConditionVariable(sim)

    def one_way(node):
        def handler(envelope):
            log(f"n{node.node_id} got {envelope.msg_type}")
            yield pause(sim, 1e-6)
            log(f"n{node.node_id} done {envelope.msg_type}")

        return handler

    def work(node):
        def handler(envelope):
            log(f"n{node.node_id} work")
            granted = yield locks[0].acquire_read(("h", envelope.msg_id), 2e-6)
            yield pause(sim, 1e-6)
            if granted:
                locks[0].release(("h", envelope.msg_id))
            node.rpc.reply(envelope, node.node_id)

        return handler

    for node in nodes:
        node.on("Fast", one_way(node))
        node.on("Slow", one_way(node))
        node.on("Work", work(node))

    def process(index, operations):
        node = nodes[index % NODES]
        for step, op in enumerate(operations):
            label = f"p{index}.{step} {op[0]}"
            log(label)
            if op[0] == "sleep":
                yield pause(sim, op[1])
            elif op[0] == "send":
                node.send(op[1], op[2], None)
            elif op[0] == "call":
                reply = yield from node.rpc.call(op[1], "Work", None)
                log(f"{label} -> {reply}")
            elif op[0] == "fanout":
                settled = yield AllOf(sim, [
                    node.rpc.spawn_call(peer, "Work", None)
                    for peer in range(NODES)
                ])
                log(f"{label} -> {settled}")
            elif op[0] == "wait":
                if not events[op[1]].triggered:
                    yield events[op[1]]
            elif op[0] == "set":
                if not events[op[1]].triggered:
                    events[op[1]].succeed(index)
            elif op[0] == "locked":
                owner = ("p", index, step)
                lock = locks[op[1]]
                acquire = lock.acquire_read if op[2] == "r" else lock.acquire_write
                granted = yield acquire(owner, 2e-6)
                log(f"{label} granted={granted}")
                yield pause(sim, op[3])
                if granted:
                    lock.release(owner)
            elif op[0] == "cv_wait":
                yield cv.wait()
            elif op[0] == "notify":
                cv.notify_all()
        log(f"p{index} end")

    for index, operations in enumerate(program):
        sim.spawn(process(index, operations), name=f"p{index}")
    sim.run()
    return trace, sim.now, net.stats.messages_sent


def test_in_place_wake_ups_leave_every_observable_order_unchanged():
    taken = Counter()

    @settings(max_examples=250, deadline=None)
    @given(programs)
    def check(program):
        real = execute(program, CountingSimulator(taken))
        queued = execute(program, QueueingSimulator())
        assert real == queued

    check()
    # The generator must reach both sides of the rule, ties included.
    assert taken["inline"] > 0 and taken["queued"] > 0, taken


def test_a_tie_heavy_program_takes_the_queue_and_still_matches():
    program = [
        [("send", 1, "Slow"), ("send", 1, "Fast"), ("sleep", 1e-6),
         ("fanout",), ("locked", 0, "w", 1e-6)],
        [("sleep", 1e-6), ("call", 0), ("notify",)],
        [("sleep", 1e-6), ("locked", 0, "w", 1e-6), ("cv_wait",)],
    ]
    taken = Counter()
    assert execute(program, CountingSimulator(taken)) == execute(
        program, QueueingSimulator()
    )
    assert taken["queued"] > 0 and taken["inline"] > 0


# ----------------------------------------------------------------------
# Bare delays: ``yield d`` is ``yield sim.timeout(d)`` without the event
# ----------------------------------------------------------------------
class CallbackLog(Simulator):
    """Logs every callback it runs, queued or woken in place, as
    ``(time, name)``; a timeout's expiry (``Event.succeed_tail``) and a
    bare delay's (``Simulator._wake``) are both ``"expiry"``."""

    def __init__(self):
        super().__init__()
        self.calls = []
        # Each scheduling entry point, with the position of its callback.
        for name, at in (("call_at", 1), ("call_soon", 0), ("_post_at", 1),
                         ("_post_soon", 0), ("_wake", 0)):
            setattr(self, name, self._logging(getattr(self, name), at))

    def _logging(self, schedule, at):
        @functools.wraps(schedule)
        def logged_schedule(*args):
            fn = args[at]
            if not hasattr(fn, "name"):
                name = getattr(fn, "__name__", "")
                name = "expiry" if name in ("succeed_tail", "_wake") else fn.__qualname__

                def fn(*call_args, _fn=fn):
                    self.calls.append((self.now, fn.name))
                    _fn(*call_args)

                fn.name = name
            return schedule(*args[:at], fn, *args[at + 1:])

        return logged_schedule


def bare(_sim, delay):
    return delay


@settings(max_examples=200, deadline=None)
@given(programs)
def test_a_bare_delay_runs_the_callbacks_a_timeout_runs(program):
    """Generated programs of pauses, messages, RPCs, locks and waits
    execute the same ``(time, callback)`` sequence, trace and counters
    whether every pause is ``yield d`` or ``yield sim.timeout(d)``."""
    with_timeout, with_delay = CallbackLog(), CallbackLog()
    assert execute(program, with_delay, bare) == execute(program, with_timeout)
    assert with_delay.calls == with_timeout.calls
    assert with_delay.executed_count == with_timeout.executed_count
    assert with_delay._sequence == with_timeout._sequence
