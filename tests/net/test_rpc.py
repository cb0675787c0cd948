"""Unit tests for RPC request/reply matching over the simulated network."""

from types import SimpleNamespace

import pytest

from repro.cluster import Node
from repro.config import NetworkConfig, RpcConfig
from repro.net import Network, RpcTimeoutError
from repro.net.rpc import BACKOFF_BASE, BACKOFF_CAP, BACKOFF_JITTER
from repro.sim import Simulator


def build_pair(rpc=None, seed=0):
    sim = Simulator()
    net = Network(sim, NetworkConfig(jitter=0.0, rpc=rpc or RpcConfig()), seed=seed)
    client = Node(sim, 0, net)
    server = Node(sim, 1, net)
    return sim, client, server


def test_request_reply_round_trip():
    sim, client, server = build_pair()

    def handle(envelope):
        body = server.rpc.body_of(envelope)
        server.rpc.reply(envelope, body * 2)

    server.on("Echo", handle)

    def proc():
        result = yield client.rpc.request(1, "Echo", 21)
        return result

    assert sim.run_process(proc()) == 42
    assert client.rpc.pending_count == 0


def test_concurrent_requests_match_correct_replies():
    sim, client, server = build_pair()

    def handle(envelope):
        body = server.rpc.body_of(envelope)

        def delayed():
            # Later requests answer sooner, exercising id matching.
            yield sim.timeout((10 - body) * 1e-6)
            server.rpc.reply(envelope, f"reply-{body}")

        sim.spawn(delayed())

    server.on("Slow", handle)

    def proc():
        first = client.rpc.request(1, "Slow", 1)
        second = client.rpc.request(1, "Slow", 2)
        a = yield first
        b = yield second
        return a, b

    assert sim.run_process(proc()) == ("reply-1", "reply-2")


def test_generator_handler_is_spawned():
    sim, client, server = build_pair()

    def handle(envelope):
        yield sim.timeout(5e-6)
        server.rpc.reply(envelope, "done")

    server.on("Work", handle)

    def proc():
        result = yield client.rpc.request(1, "Work", None)
        return result, sim.now

    result, finished = sim.run_process(proc())
    assert result == "done"
    assert finished > 5e-6


def test_unhandled_message_type_raises():
    sim, client, server = build_pair()

    def proc():
        yield client.rpc.request(1, "Nope", None)

    with pytest.raises(Exception):
        sim.run_process(proc())


def test_duplicate_handler_registration_rejected():
    sim, client, server = build_pair()
    server.on("X", lambda env: None)
    with pytest.raises(ValueError):
        server.on("X", lambda env: None)


def test_reply_requires_rpc_envelope():
    sim, client, server = build_pair()
    received = []

    def handle(envelope):
        received.append(envelope)

    server.on("Fire", handle)
    client.send(1, "Fire", "payload")
    sim.run()
    assert len(received) == 1
    with pytest.raises(TypeError):
        server.rpc.reply(received[0], "oops")


# ----------------------------------------------------------------------
# Timeouts, retries, and backoff (RpcEndpoint.call)
# ----------------------------------------------------------------------
RETRY_CONFIG = RpcConfig(request_timeout=1e-3, max_attempts=3)


def flaky_server(server, fail_first):
    """A handler that ignores the first ``fail_first`` requests."""
    calls = []

    def handle(envelope):
        calls.append(server.rpc.body_of(envelope))
        if len(calls) > fail_first:
            server.rpc.reply(envelope, "pong")

    server.on("Ping", handle)
    return calls


def test_call_without_timeout_is_single_attempt():
    sim, client, server = build_pair()
    calls = flaky_server(server, fail_first=0)

    def proc():
        reply = yield from client.rpc.call(1, "Ping", "hello")
        return reply

    assert sim.run_process(proc()) == "pong"
    assert calls == ["hello"]
    assert client.rpc.network.stats.rpc_timeouts == 0


def test_timed_out_request_is_retried_until_success():
    sim, client, server = build_pair(rpc=RETRY_CONFIG)
    calls = flaky_server(server, fail_first=2)

    def proc():
        reply = yield from client.rpc.call(1, "Ping", "hello")
        return reply, sim.now

    reply, finished = sim.run_process(proc())
    assert reply == "pong"
    assert len(calls) == 3
    # Two attempts timed out, two retries happened, the third succeeded;
    # total time covers two full timeouts plus backoff.
    stats = client.rpc.network.stats
    assert stats.rpc_timeouts == 2
    assert stats.rpc_retries == 2
    assert finished > 2 * RETRY_CONFIG.request_timeout
    assert client.rpc.pending_count == 0


def test_exhausted_retries_raise_rpc_timeout_error():
    sim, client, server = build_pair(rpc=RETRY_CONFIG)
    flaky_server(server, fail_first=10)

    def proc():
        try:
            yield from client.rpc.call(1, "Ping", "hello")
        except RpcTimeoutError as exc:
            return exc
        return None

    exc = sim.run_process(proc())
    assert isinstance(exc, RpcTimeoutError)
    assert exc.dst == 1
    assert exc.msg_type == "Ping"
    assert exc.attempts == RETRY_CONFIG.max_attempts
    stats = client.rpc.network.stats
    assert stats.rpc_timeouts == 3
    assert stats.rpc_retries == 2  # the last timeout gives up, not retries
    assert client.rpc.pending_count == 0


def test_call_settled_returns_flag_instead_of_raising():
    sim, client, server = build_pair(rpc=RETRY_CONFIG)
    flaky_server(server, fail_first=10)

    def proc():
        outcome = yield from client.rpc.call_settled(1, "Ping", "hello")
        return outcome

    assert sim.run_process(proc()) == (False, None)


def test_spawn_call_on_a_reliable_channel_is_an_event_not_a_process():
    """``request_timeout=None``: the request settles exactly once, so
    ``spawn_call`` drives no generator -- the reply resolves a plain
    event to ``(True, body)``.  The send is posted, keeping the queue
    position the process start had."""
    from repro.sim import AllOf, Process

    sim, client, server = build_pair()
    server.on(
        "Echo",
        lambda envelope: server.rpc.reply(envelope, server.rpc.body_of(envelope)),
    )
    settled = client.rpc.spawn_call(1, "Echo", "a")
    assert not isinstance(settled, Process)
    # Nothing is on the wire until the posted send runs.
    assert client.rpc.network.stats.messages_sent == 0
    assert client.rpc.pending_count == 0

    def proc():
        results = yield AllOf(
            sim, [settled, client.rpc.spawn_call(1, "Echo", "b")]
        )
        return results

    assert sim.run_process(proc()) == [(True, "a"), (True, "b")]
    assert client.rpc.pending_count == 0
    assert client.rpc.deadline_count == 0
    assert sim.pending_count == 0


def test_spawn_call_under_a_timeout_still_walks_the_retry_ladder():
    from repro.sim import Process

    sim, client, server = build_pair(rpc=RETRY_CONFIG)
    calls = flaky_server(server, fail_first=1)
    settled = client.rpc.spawn_call(1, "Ping", "hello")
    assert isinstance(settled, Process)
    sim.run()
    assert settled.value == (True, "pong")
    assert len(calls) == 2
    stats = client.rpc.network.stats
    assert (stats.rpc_timeouts, stats.rpc_retries) == (1, 1)
    # A per-call config overrides the endpoint's reliable default too.
    sim, client, server = build_pair()
    flaky_server(server, fail_first=10)
    settled = client.rpc.spawn_call(1, "Ping", "hello", RETRY_CONFIG)
    sim.run()
    assert settled.value == (False, None)
    assert client.rpc.pending_count == client.rpc.deadline_count == 0


def test_late_reply_after_timeout_is_dropped_as_stale():
    sim, client, server = build_pair(rpc=RETRY_CONFIG)

    def handle(envelope):
        # Reply well after the client's per-attempt deadline: each reply
        # races a retired request slot and must be dropped, not matched
        # (and certainly not KeyError-crash the dispatch loop).
        yield sim.timeout(5 * RETRY_CONFIG.request_timeout)
        server.rpc.reply(envelope, "too-late")

    server.on("Ping", handle)

    def proc():
        try:
            yield from client.rpc.call(1, "Ping", "hello")
        except RpcTimeoutError:
            return "timed-out"
        return "replied"

    assert sim.run_process(proc()) == "timed-out"
    sim.run()  # let the straggler replies arrive
    stats = client.rpc.network.stats
    assert stats.stale_replies == RETRY_CONFIG.max_attempts
    assert client.rpc.pending_count == 0


def retry_trace(seed):
    """(attempt times, outcome, finish time) of one flaky exchange."""
    sim, client, server = build_pair(rpc=RETRY_CONFIG, seed=seed)
    times = []

    def handle(envelope):
        times.append(sim.now)
        if len(times) > 2:
            server.rpc.reply(envelope, "pong")

    server.on("Ping", handle)

    def proc():
        reply = yield from client.rpc.call(1, "Ping", "hello")
        return reply

    result = sim.run_process(proc())
    return times, result, sim.now


def test_retry_pauses_double_up_to_the_cap_plus_jitter():
    config = RpcConfig(request_timeout=1e-3, max_attempts=8)
    sim, client, server = build_pair(rpc=config)
    times = []
    server.on("Ping", lambda envelope: times.append(sim.now))

    def proc():
        with pytest.raises(RpcTimeoutError):
            yield from client.rpc.call(1, "Ping", "hello")

    sim.run_process(proc())
    pauses = [b - a - config.request_timeout for a, b in zip(times, times[1:])]
    steps = [min(BACKOFF_BASE * 2**n, BACKOFF_CAP) for n in range(7)]
    assert len(pauses) == 7 and steps[-2:] == [BACKOFF_CAP] * 2
    for pause, step in zip(pauses, steps):
        assert step - 1e-12 <= pause <= step * (1 + BACKOFF_JITTER) + 1e-12


def test_retry_backoff_is_seed_deterministic():
    first = retry_trace(seed=7)
    second = retry_trace(seed=7)
    assert first == second
    # Jitter is drawn from the seeded stream, so a different seed shifts
    # the retry schedule while leaving the outcome intact.
    other = retry_trace(seed=8)
    assert other[1] == first[1]
    assert other[0] != first[0]


def test_call_that_succeeds_on_a_retry_leaves_nothing_armed():
    sim, client, server = build_pair(rpc=RETRY_CONFIG)
    flaky_server(server, fail_first=1)

    def proc():
        reply = yield from client.rpc.call(1, "Ping", "hello")
        return reply

    assert sim.run_process(proc()) == "pong"
    stats = client.rpc.network.stats
    assert (stats.rpc_timeouts, stats.rpc_retries) == (1, 1)
    # The first attempt's deadline fired and deleted itself, the second
    # was cancelled by its reply: no slot, no timer, no scheduler entry.
    assert client.rpc.pending_count == 0
    assert client.rpc.deadline_count == 0
    assert sim.pending_count == 0
    assert sim.now < 2 * RETRY_CONFIG.request_timeout


def test_call_answered_within_its_timeout_costs_no_deadline_event():
    sim, client, server = build_pair(rpc=RETRY_CONFIG)
    flaky_server(server, fail_first=0)

    def proc():
        reply = yield from client.rpc.call(1, "Ping", "hello")
        return reply

    assert sim.run_process(proc()) == "pong"
    # Process start, request delivery, reply delivery, run_process's
    # join callback.  ``call`` is ``request(deadline=)`` in a loop: no
    # ``Timeout`` event object and no hop between the reply and the
    # resume (with one it was 6).  PR 21 took the caller's resume (5 ->
    # 4): the reply delivery is the last thing its scheduler entry does
    # and nothing else is due, so the caller runs inside it.
    assert sim.executed_count == 4
    # Quiescence is reached at the reply, not at the deadline.
    assert sim.now < RETRY_CONFIG.request_timeout
    assert sim.pending_count == 0
    assert client.rpc.deadline_count == 0
    assert client.rpc.network.stats.rpc_timeouts == 0


# ----------------------------------------------------------------------
# Hard deadlines on bare requests (request(deadline=...))
# ----------------------------------------------------------------------
def test_bare_request_to_silent_peer_never_resolves():
    # The documented footnote: the reliable-channel primitive hangs
    # forever when nobody replies -- the deadline parameter exists
    # because of exactly this.
    sim, client, server = build_pair()
    server.on("Void", lambda envelope: None)
    event = client.rpc.request(1, "Void", None)
    sim.run()
    assert not event.triggered
    assert client.rpc.pending_count == 1


def test_request_deadline_fails_event_and_retires_slot():
    sim, client, server = build_pair()
    server.on("Void", lambda envelope: None)
    strikes = []
    client.rpc.detector = SimpleNamespace(on_rpc_timeout=strikes.append)

    def proc():
        try:
            yield client.rpc.request(1, "Void", None, deadline=1e-3)
        except RpcTimeoutError as exc:
            return exc, sim.now
        return None, sim.now

    exc, finished = sim.run_process(proc())
    assert isinstance(exc, RpcTimeoutError)
    assert exc.dst == 1
    assert exc.msg_type == "Void"
    assert finished == pytest.approx(1e-3)
    assert client.rpc.pending_count == 0
    assert client.rpc.deadline_count == 0
    assert client.rpc.network.stats.rpc_timeouts == 1
    assert strikes == [1]  # a timed-out attempt is detector evidence


def test_late_reply_after_request_deadline_is_stale():
    sim, client, server = build_pair()
    strikes = []
    client.rpc.detector = SimpleNamespace(on_rpc_timeout=strikes.append)

    def handle(envelope):
        yield sim.timeout(5e-3)
        server.rpc.reply(envelope, "too-late")

    server.on("Slow", handle)

    def proc():
        try:
            yield client.rpc.request(1, "Slow", None, deadline=1e-3)
        except RpcTimeoutError:
            return "timed-out"
        return "replied"

    assert sim.run_process(proc()) == "timed-out"
    sim.run()
    # The deadline won: it struck the detector and retired the slot, so
    # the reply that follows finds nothing to resolve or to cancel.
    assert strikes == [1]
    assert client.rpc.network.stats.stale_replies == 1
    assert client.rpc.pending_count == 0
    assert client.rpc.deadline_count == 0


def test_reply_within_deadline_cancels_the_timer():
    sim, client, server = build_pair()
    server.on("Ping", lambda envelope: server.rpc.reply(envelope, "pong"))
    seen = []
    event = client.rpc.request(1, "Ping", None, deadline=1.0)
    event.add_callback(seen.append)
    assert client.rpc.deadline_count == 1
    sim.run()
    # Request delivery, reply delivery: the cancellation rides the
    # reply's dispatch, not an event of its own, and (PR 21, 3 -> 2) so
    # does the caller's one callback -- nothing else is due at that
    # instant, so it is woken in place instead of being queued.
    assert sim.executed_count == 2
    assert seen == [event] and event.value == "pong"
    # The deadline timer must not linger: quiescence is reached at the
    # reply, not a virtual second later, with nothing left armed.
    assert sim.now < 1.0
    assert sim.pending_count == 0
    assert client.rpc.network.stats.rpc_timeouts == 0
    assert client.rpc.pending_count == 0
    assert client.rpc.deadline_count == 0
