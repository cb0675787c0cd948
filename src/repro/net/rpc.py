"""Request/reply matching on top of the simulated network.

One primitive, one ladder over it:

* :meth:`RpcEndpoint.request` returns a bare event that resolves with the
  reply body -- the original reliable-channel primitive: if the peer
  crashes the event never resolves, unless a ``deadline`` is given, which
  fails it with :class:`RpcTimeoutError`.  That deadline is the only way
  an attempt times out.
* :meth:`RpcEndpoint.call` is a generator subroutine (``yield from``):
  ``request(deadline=request_timeout)`` in a loop, with :func:`backoff`
  between attempts and capped retries, raising
  :class:`RpcTimeoutError` once attempts are exhausted.  With the default
  :class:`~repro.config.RpcConfig` (``request_timeout=None``) it is a
  single reliable request, so protocols pay nothing until faults are
  configured.

Late or duplicate replies -- a reply racing a timeout-triggered retry, or
a duplicated ``RpcReply`` envelope -- are dropped and counted in
``NetworkStats.stale_replies`` rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.config import RpcConfig
from repro.net.message import Envelope, MessageType
from repro.net.transport import Transport
from repro.sim import Event, Simulator, Timer
from repro.sim.rng import make_rng

#: Backoff before retry ``n`` is ``BACKOFF_BASE * 2**(n-1)`` capped at
#: ``BACKOFF_CAP``, plus up to ``BACKOFF_JITTER`` of itself drawn from
#: the caller's seeded RNG (deterministic per seed).
BACKOFF_BASE = 100e-6
BACKOFF_CAP = 2e-3
BACKOFF_JITTER = 0.5


def backoff(retries: int, rng) -> float:
    """The pause after ``retries`` earlier retries: the binary-exponential
    ladder the RPC endpoint and the socket transport's redial loop both
    climb, jittered by one draw from ``rng``."""
    delay = min(BACKOFF_BASE * 2.0**retries, BACKOFF_CAP)
    return delay + rng.uniform(0.0, BACKOFF_JITTER * delay)


class RpcTimeoutError(Exception):
    """A request exhausted its retry budget without hearing a reply."""

    def __init__(self, dst: int, msg_type: str, attempts: int) -> None:
        super().__init__(
            f"rpc {msg_type!r} to node {dst} timed out after "
            f"{attempts} attempt{'s' if attempts != 1 else ''}"
        )
        self.dst = dst
        self.msg_type = msg_type
        self.attempts = attempts


@dataclass(slots=True)
class _Request:
    """Wire format of an RPC request payload."""

    request_id: int
    msg_type: str
    body: Any


@dataclass(slots=True)
class _Reply:
    """Wire format of an RPC reply payload."""

    request_id: int
    body: Any


class RpcEndpoint:
    """Per-node request/reply plumbing.

    A coordinator calls :meth:`request` and yields the returned event; the
    storage-node handler computes a response and calls :meth:`reply` on the
    original envelope.  Replies travel as ``RpcReply`` messages on the
    foreground channel and resolve the waiting event with the reply body.

    The endpoint consumes only the :class:`~repro.net.transport.Transport`
    surface (``send``, ``config.rpc``, ``seed``, ``stats``), so one
    implementation serves both the simulated and the socket fabric;
    :meth:`repro.net.transport.Transport.endpoint` is the factory.

    The contract protocol code relies on is four methods.  :meth:`request`
    and :meth:`call` ask (the latter is the former under a deadline, in a
    retry loop); :meth:`reply` answers a previously delivered request
    envelope.  :meth:`handle_reply` is the node's dispatch hook for reply
    envelopes: :class:`~repro.cluster.node.Node` registers it for
    ``RpcReply`` like any other handler.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Transport,
        node_id: int,
        config: Optional[RpcConfig] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.config = config if config is not None else network.config.rpc
        self._next_request_id = 0
        self._pending: Dict[int, Event] = {}
        #: request id -> timer of a pending ``request(deadline=)``; the
        #: reply, if it comes first, cancels it in :meth:`handle_reply`.
        self._deadlines: Dict[int, Timer] = {}
        # Retry backoff jitter; derived per node so endpoints stay
        # independent of each other and of the network's own streams.
        self._rng = make_rng(network.seed, "rpc", node_id)
        #: Optional failure detector (set by the healing layer).  When
        #: attached, every timed-out attempt feeds it evidence and the
        #: retry budget of a call is capped by the peer's classification
        #: -- one probe for a known-dead peer instead of the full ladder.
        self.detector = None

    def request(
        self,
        dst: int,
        msg_type: str,
        body: Any,
        deadline: Optional[float] = None,
    ) -> Event:
        """Send a request; the returned event delivers the reply body.

        With the default ``deadline=None`` the event resolves only when a
        reply arrives -- the paper's reliable-channel primitive, which
        never resolves if the peer is crashed.  A ``deadline`` (virtual
        seconds) bounds the wait: the pending slot is retired, an attached
        failure detector is struck as for any timed-out attempt, and the
        event *fails* with :class:`RpcTimeoutError`, so a reply arriving
        later is dropped as stale; a reply arriving first cancels the
        deadline in place, costing no scheduler event.  Socket-backend
        callers should always pass one -- a real peer can be gone without
        any simulator crash bookkeeping to tell the caller so.
        """
        # The static type label is enough for debugging; formatting a
        # per-request name would be the costliest part of sending.
        event = Event(self.sim, msg_type)
        request_id = self._send_request(event, dst, msg_type, body)
        if deadline is not None:
            self._deadlines[request_id] = self.sim.call_later(
                deadline, self._expire_request, request_id, dst, msg_type
            )
        return event

    def _send_request(self, event: Event, dst: int, msg_type: str, body: Any) -> int:
        """Register ``event`` for the reply and put the request on the wire."""
        request_id = self._next_request_id
        self._next_request_id += 1
        self._pending[request_id] = event
        self.network.send(
            self.node_id, dst, msg_type, _Request(request_id, msg_type, body)
        )
        return request_id

    def _expire_request(self, request_id: int, dst: int, msg_type: str) -> None:
        """Deadline hit -- every way an attempt times out ends here: retire
        the slot, count it, strike the detector, fail the waiting event (an
        answered request never gets here: its reply cancelled the timer)."""
        del self._deadlines[request_id]
        event = self._pending.pop(request_id)
        self.strike(dst)
        event.fail(RpcTimeoutError(dst, msg_type, 1))

    def strike(self, dst: int) -> None:
        """Count a timed-out attempt at ``dst`` and tell the detector: a
        request's deadline and a silent replication stream's both do."""
        self.network.stats.rpc_timeouts += 1
        if self.detector is not None:
            self.detector.on_rpc_timeout(dst)

    def call(
        self,
        dst: int,
        msg_type: str,
        body: Any,
        config: Optional[RpcConfig] = None,
    ):
        """Generator subroutine: request with timeout, backoff, and retries.

        Use as ``reply = yield from endpoint.call(dst, t, body)``.  Each
        attempt is ``request(deadline=request_timeout)``; raises
        :class:`RpcTimeoutError` once ``max_attempts`` of them have timed
        out.  A timed-out attempt's pending slot is retired at its
        deadline, so its reply -- should it still arrive -- is dropped as
        stale instead of resolving a request the caller already gave up on.
        """
        cfg = config if config is not None else self.config
        if cfg.request_timeout is None:
            reply = yield self.request(dst, msg_type, body)
            return reply
        detector = self.detector
        # The budget is fixed at call start: a mid-call classification
        # change shortens the *next* call, keeping each call's attempt
        # count a pure function of state at its first send.
        max_attempts = (
            cfg.max_attempts
            if detector is None
            else detector.attempts_budget(dst, cfg.max_attempts)
        )
        attempt = 0
        while True:
            attempt += 1
            try:
                reply = yield self.request(
                    dst, msg_type, body, cfg.request_timeout
                )
                return reply
            except RpcTimeoutError:
                if attempt >= max_attempts:
                    raise RpcTimeoutError(dst, msg_type, attempt) from None
            self.network.stats.rpc_retries += 1
            yield self.sim.timeout(backoff(attempt - 1, self._rng))

    def call_settled(
        self,
        dst: int,
        msg_type: str,
        body: Any,
        config: Optional[RpcConfig] = None,
    ):
        """Like :meth:`call` but returns ``(ok, reply)`` instead of raising.

        ``(True, reply_body)`` on success, ``(False, None)`` on exhausted
        retries.  Meant for fan-out: spawn one process per destination and
        gather them with ``AllOf`` without one timeout failing the batch.
        """
        try:
            reply = yield from self.call(dst, msg_type, body, config)
        except RpcTimeoutError:
            return False, None
        return True, reply

    def spawn_call(
        self,
        dst: int,
        msg_type: str,
        body: Any,
        config: Optional[RpcConfig] = None,
    ):
        """:meth:`call_settled` as a yieldable event, for ``AllOf`` fan-out:
        a spawned process walking the retry ladder -- or, on a reliable
        channel (``request_timeout=None``), where a request settles exactly
        once and nothing needs driving, a plain event the reply resolves
        to ``(True, body)``.  Its send is *posted*, not performed here: it
        keeps the queue position the process start had, and so the order
        of network-jitter draws within the timestamp.
        """
        cfg = config if config is not None else self.config
        if cfg.request_timeout is not None:
            return self.sim.spawn(
                self.call_settled(dst, msg_type, body, config),
                name=msg_type,
            )
        settled = Event(self.sim, msg_type)
        reply = Event(self.sim, msg_type)
        reply.add_callback(lambda event: settled.succeed((True, event.value)))
        self.sim._post_soon(self._send_request, reply, dst, msg_type, body)
        return settled

    def reply(self, request_envelope: Envelope, body: Any) -> None:
        """Answer a request previously delivered to this node."""
        request = request_envelope.payload
        if not isinstance(request, _Request):
            raise TypeError(
                f"cannot reply to non-RPC payload {request_envelope.payload!r}"
            )
        self.network.send(
            self.node_id,
            request_envelope.src,
            MessageType.RPC_REPLY,
            _Reply(request.request_id, body),
        )

    def handle_reply(self, envelope: Envelope) -> None:
        """Dispatch an ``RpcReply`` envelope to its waiting event.

        Replies with no pending request -- late arrivals after a timeout
        retired the slot, duplicated envelopes, or replies racing a node
        restart -- are dropped and counted, never raised: a stale reply
        must not kill the node's dispatch loop.
        """
        reply = envelope.payload
        event = self._pending.pop(reply.request_id, None)
        if event is None:
            self.network.stats.stale_replies += 1
            return
        if self._deadlines:
            timer = self._deadlines.pop(reply.request_id, None)
            if timer is not None:
                timer.cancel()
        event.succeed_tail(reply.body)

    @staticmethod
    def body_of(envelope: Envelope) -> Any:
        """The request body inside an RPC request envelope."""
        return envelope.payload.body

    @property
    def pending_count(self) -> int:
        """Requests awaiting replies (leak probe for tests)."""
        return len(self._pending)

    @property
    def deadline_count(self) -> int:
        """Armed request deadlines (leak probe for tests)."""
        return len(self._deadlines)
