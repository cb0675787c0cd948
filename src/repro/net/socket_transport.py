"""Real-socket transport: the asyncio TCP :class:`Transport` backend.

Architecture (see docs/networking.md for the full walkthrough):

* Protocol code still runs single-threaded inside the deterministic
  :class:`~repro.sim.Simulator` -- generators, events, timers, all of
  it unchanged.  What changes is how the clock advances and how
  envelopes travel: :meth:`SocketTransport.pump` maps virtual time onto
  the wall clock (``virtual = (wall - start) * time_scale``) and feeds
  frames arriving from TCP connections into the simulator as they
  land.
* All socket I/O lives on a private asyncio event loop running in a
  daemon thread (imported by the methods that use it, so a simulated
  run that imports this module loads no asyncio or ssl).  The
  simulator thread never blocks on a socket: sends enqueue an
  already-encoded frame onto the loop via ``call_soon_threadsafe``, and
  inbound frames are decoded on the I/O thread and handed over through
  a plain deque + wakeup event.
* Every envelope -- including a node's messages to itself -- goes
  through the canonical byte serde (:mod:`repro.net.serde`), so a
  payload that cannot survive a real wire fails loudly on any backend
  path.

One transport hosts one *process worth* of nodes: all of them for the
in-process loopback mode (the default, used by the integration tests --
inter-node traffic still crosses real TCP connections to the
transport's own listener), or a single node when
:mod:`repro.net.host` runs one process per node.

Connections are lazy, per-destination, and self-healing: the first
frame to a peer dials it with the RPC backoff ladder
(:func:`repro.net.rpc.backoff`) scaled by ``RECONNECT_BACKOFF_SCALE``
(virtual-scale ladders are microseconds; real dials want milliseconds),
a broken connection redials and resends the frame that failed (frames
are queued per destination, so FIFO per (src, dst) pair survives
reconnects), and a peer that stays unreachable past the attempt budget
drops the queued frames as ``"unreachable"`` -- the same degrade-not-
crash contract as the simulated fabric's unknown-destination path.

Fault injection is a simulator feature; the base-class surface answers
"healthy" for probes and refuses crash/partition mutations.
"""

from __future__ import annotations

import struct
import threading
import time
from collections import deque
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.config import NetworkConfig, TransportConfig
from repro.net.message import Envelope
from repro.net.network import DROP_UNKNOWN_DST, NetworkStats
from repro.net.rpc import backoff
from repro.net.serde import (
    WIRE_VERSION,
    FrameDecoder,
    WireDecodeError,
    decode_envelope,
    encode_envelope,
)
from repro.net.transport import Transport
from repro.sim import Simulator
from repro.sim.rng import make_rng

DeliverFn = Callable[[Envelope], None]

#: First bytes on every connection: magic + wire version.
HELLO = b"FWKV" + bytes([WIRE_VERSION])

#: Drop reason for frames whose peer stayed unreachable past the
#: connect-attempt budget.
DROP_UNREACHABLE = "unreachable"

#: Wall-second deadline for one TCP connect attempt.
CONNECT_TIMEOUT = 5.0
#: Connect attempts per link before queued frames are dropped (counted
#: as ``unreachable`` in ``NetworkStats.drops_by_reason``).
MAX_CONNECT_ATTEMPTS = 8
#: Reconnect backoff reuses the RPC ladder scaled by this
#: factor -- the simulator's microsecond-scale defaults would busy-spin
#: a real TCP reconnect loop.
RECONNECT_BACKOFF_SCALE = 500.0
#: Wall seconds the socket pump tolerates with *nothing* happening (no
#: events executed, no frames arriving) while waiting on a ``stop``
#: process before declaring the run stalled.
IDLE_TIMEOUT = 10.0
#: Wall seconds of inbound silence after the local schedule drains that
#: an unbounded pump treats as cluster quiescence.
DRAIN_GRACE = 0.05
#: Waits shorter than this (wall seconds) spin through the pump loop
#: instead of sleeping; microsecond-scale virtual timers would otherwise
#: pay an OS-wakeup per event.
SPIN_THRESHOLD = 500e-6

_LEN = struct.Struct(">I")


class _PeerLink:
    """Outbound connection state for one destination (I/O thread only)."""

    __slots__ = ("queue", "task")

    def __init__(self, queue: "asyncio.Queue", task: "asyncio.Task") -> None:
        self.queue = queue
        self.task = task


class SocketTransport(Transport):
    """A :class:`Transport` carrying envelopes over real TCP sockets."""

    kind = "socket"

    def __init__(
        self,
        sim: Simulator,
        config: Optional[NetworkConfig] = None,
        seed: int = 0,
        *,
        num_nodes: int,
        options: Optional[TransportConfig] = None,
        local_nodes: Optional[Iterable[int]] = None,
        port: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.config = config if config is not None else NetworkConfig()
        self.seed = seed
        self.options = options if options is not None else TransportConfig(kind="socket")
        self.stats = NetworkStats()
        self.num_nodes = num_nodes
        #: Node ids hosted by *this* process; ``None`` means all of them
        #: (in-process loopback mode).
        self.local_nodes = (
            frozenset(range(num_nodes))
            if local_nodes is None
            else frozenset(local_nodes)
        )
        # Transport-surface attributes the sim backend also carries; the
        # socket backend accepts but ignores delay_policy (real latency
        # is not injectable) and honours drop_log for its own drops.
        self.delay_policy = None
        self.drop_log: Optional[list] = None

        self._registered: Dict[int, DeliverFn] = {}
        self._peers: Dict[int, Tuple[str, int]] = {}
        self._links: Dict[int, _PeerLink] = {}
        self._next_msg_id = 0
        self._horizon: Dict[Tuple[int, int], float] = {}
        self._rng = make_rng(seed, "socket", "reconnect")
        self._closed = False

        #: Live inbound-connection handler tasks (I/O thread only);
        #: close() cancels any still reading.
        self._conn_tasks: set = set()
        #: Inbound envelopes decoded on the I/O thread, drained by
        #: :meth:`pump` on the simulator thread (deque ops are atomic).
        self._inbox: deque = deque()
        self._wakeup = threading.Event()
        import asyncio

        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="fwkv-socket-io", daemon=True
        )
        self._thread.start()
        bind_port = port if port is not None else self.options.base_port
        self._server = asyncio.run_coroutine_threadsafe(
            asyncio.start_server(
                self._handle_conn, host=self.options.host, port=bind_port
            ),
            self._loop,
        ).result(CONNECT_TIMEOUT)
        sock = self._server.sockets[0]
        #: ``(host, port)`` this transport accepts frames on.
        self.listen_address: Tuple[str, int] = sock.getsockname()[:2]
        if local_nodes is None:
            # Loopback mode: every node lives here, so every destination
            # dials our own listener -- inter-node traffic still crosses
            # a real TCP connection.
            self.set_peers({n: self.listen_address for n in range(num_nodes)})

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register(self, node_id: int, deliver: DeliverFn) -> None:
        if node_id in self._registered:
            raise ValueError(f"node {node_id} already registered")
        if node_id not in self.local_nodes:
            raise ValueError(
                f"node {node_id} is not hosted by this transport "
                f"(local nodes: {sorted(self.local_nodes)})"
            )
        self._registered[node_id] = deliver

    def set_peers(self, peers: Dict[int, Tuple[str, int]]) -> None:
        """Install (or extend) the destination address book.

        Multi-process launchers call this once every process has
        reported its listen address; frames to a destination with no
        address drop as ``unknown_dst``.
        """
        for node_id, (host, port) in peers.items():
            self._peers[int(node_id)] = (host, int(port))

    # ------------------------------------------------------------------
    # Sending (simulator thread)
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, msg_type: str, payload) -> Envelope:
        now = self.sim.now
        envelope = Envelope(msg_type, src, dst, payload, now, 0.0, self._next_msg_id)
        self._next_msg_id += 1
        self.stats.messages_sent += 1
        self.stats.messages_by_type[msg_type] += 1
        self._horizon[(src, dst)] = now

        # Serde discipline on every path: a payload that cannot cross a
        # real wire must fail here too, even node-to-self.
        data = encode_envelope(envelope)
        self.stats.bytes_hint += len(data)

        if src == dst:
            # Self-messages never touch the fabric (matches the sim
            # backend's loopback dispatch); round-trip through bytes so
            # the receiver sees exactly what a remote would.
            self.sim._post_soon(self._deliver, decode_envelope(data))
            return envelope
        if dst not in self._peers:
            self._drop(DROP_UNKNOWN_DST, envelope)
            return envelope
        frame = _LEN.pack(len(data)) + data
        self._loop.call_soon_threadsafe(self._enqueue_frame, dst, frame)
        return envelope

    def _deliver(self, envelope: Envelope) -> None:
        envelope.deliver_time = self.sim.now
        deliver = self._registered.get(envelope.dst)
        if deliver is None:
            self._drop(DROP_UNKNOWN_DST, envelope)
            return
        deliver(envelope)

    def _drop(self, reason: str, envelope: Envelope) -> None:
        self.stats.messages_dropped += 1
        self.stats.drops_by_reason[reason] += 1
        if self.drop_log is not None:
            self.drop_log.append((reason, envelope))

    def last_send_horizon(self, src: int, dst: int) -> float:
        return self._horizon.get((src, dst), 0.0)

    # ------------------------------------------------------------------
    # Outbound links (I/O thread)
    # ------------------------------------------------------------------
    def _enqueue_frame(self, dst: int, frame: bytes) -> None:
        link = self._links.get(dst)
        if link is None:
            import asyncio
            queue: asyncio.Queue = asyncio.Queue()
            task = self._loop.create_task(self._run_link(dst, queue))
            link = self._links[dst] = _PeerLink(queue, task)
        link.queue.put_nowait(frame)

    async def _connect(self, dst: int) -> Optional[asyncio.StreamWriter]:
        """Dial ``dst`` with the scaled backoff ladder; None on give-up."""
        import asyncio
        host, port = self._peers[dst]
        for attempt in range(MAX_CONNECT_ATTEMPTS):
            try:
                _reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port),
                    timeout=CONNECT_TIMEOUT,
                )
                writer.write(HELLO)
                await writer.drain()
                return writer
            except (OSError, asyncio.TimeoutError):
                if attempt + 1 >= MAX_CONNECT_ATTEMPTS:
                    return None
                await asyncio.sleep(
                    backoff(attempt, self._rng) * RECONNECT_BACKOFF_SCALE
                )
        return None

    async def _run_link(self, dst: int, queue: "asyncio.Queue") -> None:
        """Writer loop for one destination: connect, write, self-heal."""
        writer: Optional[asyncio.StreamWriter] = None
        try:
            while True:
                frame = await queue.get()
                if frame is None:  # close() sentinel
                    break
                while True:
                    if writer is None:
                        writer = await self._connect(dst)
                        if writer is None:
                            # Peer unreachable: shed this frame and the
                            # backlog; a later frame gets a fresh budget.
                            self._count_unreachable(dst)
                            while not queue.empty():
                                if queue.get_nowait() is None:
                                    return
                                self._count_unreachable(dst)
                            break
                    try:
                        writer.write(frame)
                        await writer.drain()
                        break
                    except (OSError, ConnectionError):
                        # Redial and resend the same frame: per-pair FIFO
                        # survives the reconnect.
                        self._abandon_writer(writer)
                        writer = None
        finally:
            self._abandon_writer(writer)

    def _count_unreachable(self, dst: int) -> None:
        self.stats.messages_dropped += 1
        self.stats.drops_by_reason[DROP_UNREACHABLE] += 1

    @staticmethod
    def _abandon_writer(writer: Optional[asyncio.StreamWriter]) -> None:
        if writer is not None:
            try:
                writer.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass

    # ------------------------------------------------------------------
    # Inbound (I/O thread)
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        import asyncio
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            hello = await reader.readexactly(len(HELLO))
            if hello != HELLO:
                raise WireDecodeError(f"bad hello {hello!r}")
            decoder = FrameDecoder()
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                for body in decoder.feed(chunk):
                    # Decode on the I/O thread so the simulator thread
                    # pays delivery, not parsing.
                    self._inbox.append(decode_envelope(body))
                self._wakeup.set()
        except (asyncio.IncompleteReadError, OSError, ConnectionError):
            return
        except WireDecodeError:
            # A corrupt or alien stream poisons only this connection.
            return
        except asyncio.CancelledError:
            return
        finally:
            self._conn_tasks.discard(task)
            self._abandon_writer(writer)

    # ------------------------------------------------------------------
    # The pump (simulator thread)
    # ------------------------------------------------------------------
    def pump(self, until: Optional[float] = None, stop=None) -> float:
        """Advance virtual time against the wall clock, injecting frames.

        ``until`` bounds the run in *virtual* seconds (wall seconds x
        ``time_scale``); ``stop`` is an event whose trigger ends the
        pump.  With neither, the pump runs local work to exhaustion and
        returns once the schedule and inbox stay empty for
        ``DRAIN_GRACE`` wall seconds -- callers that wait on remote
        replies must pass ``stop`` (the reply leaves no local footprint
        to wait on).  A ``stop``-mode pump that sees no activity for
        ``IDLE_TIMEOUT`` wall seconds raises: on a real network that is
        a hung peer, not quiescence.
        """
        sim = self.sim
        scale = self.options.time_scale
        monotonic = time.monotonic
        start_wall = monotonic() - sim.now / scale
        last_activity = monotonic()
        while True:
            self._wakeup.clear()
            vnow = (monotonic() - start_wall) * scale
            if until is not None and vnow > until:
                vnow = until
            delivered = self._drain_inbox(vnow)
            before = sim.executed_count
            if until is None and stop is None:
                sim.run()  # burst local work to exhaustion
            else:
                sim.run(until=vnow)
            if delivered or sim.executed_count != before:
                last_activity = monotonic()

            if stop is not None and stop.triggered:
                return sim.now
            if until is not None and sim.now >= until and not self._inbox:
                return sim.now

            next_t = sim._peek_time()
            now_wall = monotonic()
            if until is None and stop is None:
                # Quiesce probe: schedule and inbox empty, wait out the
                # grace window for stragglers already on the wire.
                if next_t is None and not self._inbox:
                    if now_wall - last_activity >= DRAIN_GRACE:
                        return sim.now
                    self._wakeup.wait(DRAIN_GRACE)
                continue
            if stop is not None and now_wall - last_activity > IDLE_TIMEOUT:
                raise RuntimeError(
                    f"socket pump stalled: no activity for "
                    f"{IDLE_TIMEOUT}s while waiting on {stop!r}"
                )
            if next_t is not None:
                wall_deadline = start_wall + next_t / scale
            elif until is not None:
                wall_deadline = start_wall + until / scale
            else:
                wall_deadline = now_wall + DRAIN_GRACE
            timeout = wall_deadline - now_wall
            if timeout > SPIN_THRESHOLD:
                # Cap the sleep so stop/idle bookkeeping stays responsive.
                self._wakeup.wait(min(timeout, 0.05))
            # else: spin -- the deadline is closer than a wakeup latency.

    def _drain_inbox(self, vnow: float) -> int:
        """Post inbound envelopes into the simulator; returns the count."""
        sim = self.sim
        inbox = self._inbox
        count = 0
        while inbox:
            envelope = inbox.popleft()
            # Frames arrive "now"; never schedule in the simulator's past.
            sim._post_at(max(sim.now, vnow), self._deliver, envelope)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down sockets, tasks, loop, and thread.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        import asyncio

        async def _shutdown() -> None:
            for link in self._links.values():
                link.queue.put_nowait(None)
            self._server.close()
            await self._server.wait_closed()
            if self._links:
                await asyncio.wait(
                    [link.task for link in self._links.values()], timeout=1.0
                )
                for link in self._links.values():
                    link.task.cancel()
            # Established inbound connections outlive server.close();
            # cancel their handlers explicitly.
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.wait(list(self._conn_tasks), timeout=1.0)

        try:
            asyncio.run_coroutine_threadsafe(_shutdown(), self._loop).result(5.0)
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._loop.close()
