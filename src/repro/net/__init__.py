"""Message fabric: envelopes, the transport seam, and RPC.

Two :class:`Transport` backends live here: the deterministic simulated
:class:`Network` (latency model, channels, fault injection) and the real
asyncio TCP :class:`~repro.net.socket_transport.SocketTransport` (lazily
imported -- see docs/networking.md).  :class:`RpcEndpoint` is the
request/reply layer over either.
"""

from repro.net.message import Envelope, MessageType
from repro.net.network import Network, NetworkStats
from repro.net.rpc import RpcEndpoint, RpcTimeoutError
from repro.net.transport import Transport, TransportError, build_transport

__all__ = [
    "Envelope",
    "MessageType",
    "Network",
    "NetworkStats",
    "RpcEndpoint",
    "RpcTimeoutError",
    "Transport",
    "TransportError",
    "build_transport",
]
