"""The transport seam: one abstract fabric, two backends.

Every protocol node talks to the cluster through :class:`Transport` --
the message fabric itself: node registration, one-way sends, per-run
statistics, and the *pump* that advances the cluster's virtual clock.
The deterministic simulator backend (:class:`repro.net.network.Network`)
and the real asyncio TCP backend
(:class:`repro.net.socket_transport.SocketTransport`) both implement it,
so ``Cluster``/``MVCCNode`` code never branches on which one it is
running over.  Request/reply matching on top of it is
:class:`repro.net.rpc.RpcEndpoint`, built by :meth:`Transport.endpoint`;
it works unchanged over either backend because it only consumes the
:class:`Transport` surface.

The seam is chosen at construction (:func:`build_transport`, driven by
:class:`repro.config.TransportConfig`); everything after construction is
backend-agnostic.  The simulator backend's ``pump`` is exactly
``sim.run`` -- a ``kind="sim"`` cluster is bit-identical to the
pre-seam behaviour -- while the socket backend's pump maps virtual time
onto the wall clock and injects frames arriving from real connections.

Fault injection (crash/partition/loss) is a simulator feature: the base
class exposes the probe surface (``is_crashed`` et al.) as "everything
is healthy" and refuses the mutation surface, so protocol code may probe
freely on any backend while nemesis schedules stay sim-only.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, ClassVar, Optional

from repro.net.message import Envelope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import ClusterConfig, NetworkConfig, RpcConfig
    from repro.net.network import NetworkStats
    from repro.sim import Simulator

DeliverFn = Callable[[Envelope], None]


class TransportError(RuntimeError):
    """An operation the active transport backend cannot perform."""


class Transport(ABC):
    """Abstract message fabric between the nodes of one cluster.

    Concrete backends provide the attributes ``sim`` (the node-side
    :class:`~repro.sim.Simulator` that executes all protocol code),
    ``config`` (a :class:`~repro.config.NetworkConfig`), ``seed`` (the
    run seed RNG streams derive from), ``stats`` (a
    :class:`~repro.net.network.NetworkStats`), ``drop_log`` (optional
    fault-accounting list) and ``delay_policy`` (optional per-envelope
    extra-delay hook; real backends may ignore it).
    """

    #: Backend discriminator, matching ``TransportConfig.kind``.
    kind: ClassVar[str] = "abstract"

    sim: "Simulator"
    config: "NetworkConfig"
    seed: int
    stats: "NetworkStats"

    # ------------------------------------------------------------------
    # Core fabric surface
    # ------------------------------------------------------------------
    @abstractmethod
    def register(self, node_id: int, deliver: DeliverFn) -> None:
        """Attach a local node's delivery callback."""

    @abstractmethod
    def send(self, src: int, dst: int, msg_type: str, payload) -> Envelope:
        """Send one message; returns the (possibly dropped) envelope."""

    def endpoint(self, node_id: int, config: "Optional[RpcConfig]" = None):
        """Build the request/reply endpoint for a local node: the one
        :class:`~repro.net.rpc.RpcEndpoint`, whatever the backend."""
        from repro.net.rpc import RpcEndpoint

        return RpcEndpoint(self.sim, self, node_id, config)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def pump(self, until: Optional[float] = None, stop=None) -> float:
        """Advance the cluster's virtual clock; returns the final time.

        ``until`` bounds the run in virtual seconds; ``stop`` is an
        optional :class:`~repro.sim.Event` (usually a process) after
        whose trigger the pump may return.  The simulator backend runs to
        quiescence -- which settles ``stop`` if anything ever will -- so
        this default is exactly ``sim.run(until)``.  Real backends
        override it to interleave the simulator with I/O and *must*
        honour ``stop``, because a node awaiting a remote reply has an
        empty local schedule without being done.
        """
        return self.sim.run(until)

    def close(self) -> None:
        """Release external resources (sockets, threads).  Idempotent;
        the simulator backend holds none and inherits this no-op."""

    # ------------------------------------------------------------------
    # Fault surface: probes answer "healthy", mutations refuse
    # ------------------------------------------------------------------
    def is_crashed(self, node_id: int) -> bool:
        """Whether the node is crash-stopped (injected faults only)."""
        return False

    def is_partitioned(self, a: int, b: int) -> bool:
        """Whether the directed link ``a -> b`` is cut."""
        return False

    def crash(self, node_id: int) -> None:
        raise TransportError(
            f"{self.kind!r} transport does not support fault injection; "
            "crash/partition schedules require the sim backend"
        )

    def restart(self, node_id: int) -> None:
        raise TransportError(
            f"{self.kind!r} transport does not support fault injection"
        )

    def partition(self, a: int, b: int) -> None:
        raise TransportError(
            f"{self.kind!r} transport does not support fault injection"
        )

    def heal(self, a: int, b: int) -> None:
        raise TransportError(
            f"{self.kind!r} transport does not support fault injection"
        )

    def heal_all(self) -> None:
        raise TransportError(
            f"{self.kind!r} transport does not support fault injection"
        )

    def last_send_horizon(self, src: int, dst: int) -> float:
        """Newest known send/delivery time of any ``src -> dst`` message
        (``0.0`` if the pair never communicated); heartbeat suppression
        reads it as liveness evidence."""
        return 0.0


def build_transport(sim: "Simulator", config: "ClusterConfig") -> Transport:
    """Construct the transport a :class:`~repro.system.Cluster` runs on.

    The single place backend selection happens: ``kind="sim"`` (default)
    builds the deterministic :class:`~repro.net.network.Network`,
    ``kind="socket"`` an in-process
    :class:`~repro.net.socket_transport.SocketTransport` hosting every
    node locally and carrying all inter-node traffic over real loopback
    TCP.  Everything downstream of construction sees only the
    :class:`Transport` interface.
    """
    kind = config.transport.kind
    if kind == "sim":
        from repro.net.network import Network

        return Network(sim, config.network, seed=config.seed)
    if kind == "socket":
        from repro.net.socket_transport import SocketTransport

        return SocketTransport(
            sim,
            config.network,
            seed=config.seed,
            options=config.transport,
            num_nodes=config.num_nodes,
        )
    raise ValueError(f"unknown transport kind {kind!r}")
