"""Shared context and the protocol-node interface."""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Optional, Tuple

from repro.cluster.directory import Directory
from repro.cluster.node import Node
from repro.config import ClusterConfig
from repro.core.cost_model import CPU_CORES
from repro.core.transaction import Transaction
from repro.metrics.history import History, OpRecord, TxnRecord
from repro.metrics.stats import MetricsRecorder
from repro.sim import CpuResource, Simulator
from repro.sim.tracing import Tracer


@dataclass
class SharedState:
    """Cluster-wide state every protocol node references.

    The transaction-id counter is global only because the simulation is a
    single process; ids could equally be ``(node, local counter)`` pairs.
    Uniqueness is all the protocols require.
    """

    sim: Simulator
    config: ClusterConfig
    directory: Directory
    metrics: MetricsRecorder
    tracer: Optional[Tracer] = None
    history: Optional[History] = None
    _txn_ids: Iterator[int] = field(default_factory=lambda: itertools.count(1))

    def next_txn_id(self) -> int:
        return next(self._txn_ids)

    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes


class BaseProtocolNode(ABC):
    """One node's protocol logic: coordinator API plus message handlers.

    The coordinator API is what clients co-located with the node call:

    * :meth:`begin` returns a fresh :class:`Transaction`;
    * :meth:`read` / :meth:`commit` are *generator subroutines* -- call
      them from a simulated process with ``yield from``;
    * :meth:`write` buffers locally and returns immediately (lazy update).
    """

    protocol_name = "abstract"

    def __init__(self, node: Node, shared: SharedState) -> None:
        self.node = node
        self.shared = shared
        self.sim = shared.sim
        self.directory = shared.directory
        self.metrics = shared.metrics
        #: This node's handler-execution capacity.
        self.cpu = CpuResource(self.sim, CPU_CORES)
        self.tracer = shared.tracer or Tracer(self.sim, self.metrics)

    @property
    def node_id(self) -> int:
        return self.node.node_id

    # ------------------------------------------------------------------
    # Data loading (outside transactions, before a run)
    # ------------------------------------------------------------------
    @abstractmethod
    def load_many(self, items: Iterable[Tuple[Hashable, object]]) -> int:
        """Install initial data for keys stored here; returns the count."""

    # ------------------------------------------------------------------
    # Coordinator API
    # ------------------------------------------------------------------
    def begin(
        self, is_read_only: bool, profile: Optional[str] = None
    ) -> Transaction:
        txn = Transaction(
            txn_id=self.shared.next_txn_id(),
            node_id=self.node_id,
            num_sites=self.shared.num_nodes,
            is_read_only=is_read_only,
            start_time=self.sim.now,
            profile=profile,
        )
        self._on_begin(txn)
        if self.tracer._enabled:
            self.tracer.emit(self.node_id, "begin", txn=txn.txn_id,
                             ro=is_read_only, profile=profile)
        return txn

    def _on_begin(self, txn: Transaction) -> None:
        """Protocol hook: initialise the transaction's snapshot."""

    def write(self, txn: Transaction, key: Hashable, value: object) -> None:
        """Buffer a write (lazy update; visible at commit only)."""
        if txn.is_read_only:
            raise ValueError(
                f"transaction {txn.txn_id} was declared read-only but wrote "
                f"{key!r}; read-only transactions must be identified correctly"
            )
        txn.writeset[key] = value
        txn.read_cache[key] = value

    @abstractmethod
    def read(self, txn: Transaction, key: Hashable):
        """Generator subroutine returning the value visible to ``txn``."""

    @abstractmethod
    def commit(self, txn: Transaction):
        """Generator subroutine returning True (committed) or False."""

    def abort(self, txn: Transaction, reason: Optional[str] = None) -> None:
        """Client-initiated rollback (e.g. TPC-C's 1% invalid NewOrders) --
        or, with an :class:`AbortReason`, an attempt the client gives up
        on (an RPC exhausted its retries), booked as the abort it is.

        Nothing is held at this point -- writes are buffered and locks are
        only taken during commit -- so rollback is local: discard the
        buffers and let the protocol clean up any read registrations.
        """
        if reason is None:
            self.metrics.on_rollback(txn)
        else:
            self.metrics.on_abort(txn, reason)
        txn.writeset.clear()
        self._on_client_abort(txn)
        txn.mark_aborted(self.sim.now)
        self.tracer.emit(
            self.node_id, "abort", txn=txn.txn_id, reason=reason or "rollback"
        )

    def _on_client_abort(self, txn: Transaction) -> None:
        """Protocol hook for rollback cleanup."""

    # ------------------------------------------------------------------
    # History plumbing
    # ------------------------------------------------------------------
    def _record_commit(self, txn: Transaction) -> None:
        history = self.shared.history
        if history is None:
            return
        record = TxnRecord(
            txn_id=txn.txn_id,
            node_id=txn.node_id,
            is_read_only=txn.is_read_only,
            start_time=txn.start_time,
            end_time=self.sim.now,
            seq_no=txn.seq_no,
            commit_vc=txn.commit_vc.to_tuple() if txn.commit_vc else None,
            profile=txn.profile,
            write_keys=tuple(txn.writeset),
        )
        for kind, key, vid, latest_vid in txn.ops:
            record.ops.append(OpRecord(kind, key, vid, latest_vid))
        # Write vids are discovered post-run from the version catalog
        # (the coordinator never learns remote install vids); see
        # resolve_write_vids(), which also audits write_keys against it.
        history.append(record)
