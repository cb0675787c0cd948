"""Unit tests for events, combinators, and processes."""

import pytest

from repro.sim import AllOf, Event, Simulator


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(7)
    assert ev.triggered and ev.ok
    assert ev.value == 7


def test_event_fail_raises_on_value_access():
    sim = Simulator()
    ev = sim.event()
    ev.fail(KeyError("nope"))
    assert ev.triggered and not ev.ok
    with pytest.raises(KeyError):
        _ = ev.value


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_pending_value_access_is_an_error():
    sim = Simulator()
    with pytest.raises(RuntimeError):
        _ = sim.event().value


def test_callback_on_already_triggered_event_still_fires():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["v"]


def test_process_waits_on_events():
    sim = Simulator()
    gate = sim.event()
    trace = []

    def proc():
        trace.append(("start", sim.now))
        value = yield gate
        trace.append(("resumed", sim.now, value))
        return "done"

    p = sim.spawn(proc())
    sim.call_later(4.0, gate.succeed, "opened")
    sim.run()
    assert p.value == "done"
    assert trace == [("start", 0.0), ("resumed", 4.0, "opened")]


def test_process_join_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(3.0)
        return "child-result"

    def parent():
        result = yield sim.spawn(child())
        return result

    assert sim.run_process(parent()) == "child-result"


def test_exception_propagates_into_waiting_process():
    sim = Simulator()
    gate = sim.event()

    def proc():
        try:
            yield gate
        except RuntimeError as exc:
            return f"caught {exc}"

    p = sim.spawn(proc())
    sim.call_later(1.0, gate.fail, RuntimeError("boom"))
    sim.run()
    assert p.value == "caught boom"


def test_yield_from_subroutine_composes():
    sim = Simulator()

    def wait_twice(delay):
        yield sim.timeout(delay)
        yield sim.timeout(delay)
        return delay * 2

    def proc():
        total = yield from wait_twice(1.5)
        return total

    assert sim.run_process(proc()) == 3.0
    assert sim.now == 3.0


@pytest.mark.parametrize("value", [42, "1.0", None, True])
def test_yielding_neither_an_event_nor_a_float_is_an_error(value):
    sim = Simulator()

    def bad():
        yield value

    def parent():
        yield sim.spawn(bad())

    with pytest.raises(TypeError, match="Event instances or float delays"):
        sim.run_process(parent())


def test_a_float_delay_pauses_and_resumes_with_none():
    sim = Simulator()

    def proc():
        got = yield 2.5
        return got, sim.now

    assert sim.run_process(proc()) == (None, 2.5)


def test_a_negative_delay_raises_inside_the_generator():
    sim = Simulator()

    def proc():
        try:
            yield -1.0
        except ValueError as exc:
            yield 1.0  # the process carries on after handling it
            return str(exc), sim.now

    assert sim.run_process(proc()) == ("negative delay -1.0", 1.0)


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_allof_collects_values_in_order():
    sim = Simulator()
    events = [sim.timeout(3.0, "c"), sim.timeout(1.0, "a"), sim.timeout(2.0, "b")]

    def proc():
        values = yield AllOf(sim, events)
        return values

    assert sim.run_process(proc()) == ["c", "a", "b"]
    assert sim.now == 3.0


def test_allof_empty_succeeds_immediately():
    sim = Simulator()

    def proc():
        values = yield AllOf(sim, [])
        return values

    assert sim.run_process(proc()) == []


def test_allof_fails_on_child_failure():
    sim = Simulator()
    bad = sim.event()
    sim.call_later(1.0, bad.fail, ValueError("x"))

    def proc():
        try:
            yield AllOf(sim, [sim.timeout(5.0), bad])
        except ValueError:
            return "failed"

    assert sim.run_process(proc()) == "failed"


def test_event_repr_mentions_state():
    sim = Simulator()
    ev = Event(sim, name="my-event")
    assert "my-event" in repr(ev)
    assert "pending" in repr(ev)
