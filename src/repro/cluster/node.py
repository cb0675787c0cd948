"""Node runtime: message dispatch and handler registration."""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Optional

from repro.net.message import Envelope, MessageType
from repro.net.transport import Transport
from repro.sim import Process, Simulator

Handler = Callable[[Envelope], object]


class Node:
    """One simulated machine.

    A node owns an RPC endpoint and a table of message handlers.  A handler
    may be a plain function (runs atomically at delivery time) or a
    generator function (spawned as a process, so it can wait on locks,
    timeouts, and condition variables mid-message).  Handlers for distinct
    messages interleave only at yield points, which models one mutual-
    exclusion domain per node with explicit fine-grained locks where the
    protocol requires them.
    """

    def __init__(self, sim: Simulator, node_id: int, network: Transport) -> None:
        self.sim = sim
        self.node_id = node_id
        self.network = network
        self.rpc = network.endpoint(node_id)
        # msg_type -> (handler, spawn_as_process, process_name); the
        # generator check is done once at registration, not per delivery.
        self._handlers: Dict[str, tuple] = {}
        #: Optional liveness tap: called with the source node id of every
        #: delivered envelope.  The failure detector installs itself here
        #: when armed; the default ``None`` keeps delivery on the fast
        #: path.
        self.arrival_hook: Optional[Callable[[int], None]] = None
        network.register(node_id, self.deliver)
        self.on(MessageType.RPC_REPLY, self.rpc.handle_reply)

    def on(self, msg_type: str, handler: Handler) -> None:
        """Register the handler for a message type (one per type)."""
        if msg_type in self._handlers:
            raise ValueError(f"handler for {msg_type!r} already registered")
        # Handler-process names are per (node, type), so build them once at
        # registration instead of formatting one per delivery.
        self._handlers[msg_type] = (
            handler,
            inspect.isgeneratorfunction(handler),
            f"n{self.node_id}:{msg_type}",
        )

    def deliver(self, envelope: Envelope) -> None:
        """Network delivery entry point."""
        if self.arrival_hook is not None:
            self.arrival_hook(envelope.src)
        entry = self._handlers.get(envelope.msg_type)
        if entry is None:
            raise KeyError(
                f"node {self.node_id} has no handler for {envelope.msg_type!r}"
            )
        handler, spawn, name = entry
        if spawn:
            # Last act of the delivery entry: the handler's first step
            # runs in place when nothing else is due at this instant.
            Process(self.sim, handler(envelope), name, tail=True)
        else:
            handler(envelope)

    def send(self, dst: int, msg_type: str, payload) -> None:
        """Fire-and-forget message (used for Decide/Propagate/Remove)."""
        self.network.send(self.node_id, dst, msg_type, payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id}>"
