"""The FW-KV protocol node: fresh reads via visible-read bookkeeping."""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Tuple

from repro.cluster.node import Node
from repro.core.cost_model import VAS_ITEM
from repro.core.fwkv.visibility import (
    select_read_only_version,
    select_update_version,
)
from repro.core.interfaces import SharedState
from repro.core.mvcc_node import MVCCNode
from repro.core.transaction import Transaction
from repro.core.wire import NOTHING_COLLECTED, ReadRequestBody, RemoveBody
from repro.net.message import Envelope, MessageType
from repro.storage.version import Version

#: Remove identifiers are batched per destination and flushed on this one
#: per-node timer, bounding background message rate: one Remove per
#: destination per interval, off the commit critical path.
REMOVE_FLUSH_INTERVAL = 500e-6


class FWKVNode(MVCCNode):
    """Walter's machinery plus the FW-KV freshness extensions.

    The deltas over :class:`~repro.core.mvcc_node.MVCCNode` defaults are
    exactly the paper's additional metadata and steps (Section 4):

    * read handlers run under the shared side of the per-key lock so they
      exclude concurrent conflicting update commits but not each other;
    * read-only reads register in the version-access-set (visible reads)
      and skip versions already carrying their identifier;
    * replies carry a ``maxVC`` freshness bound -- the node's current
      ``siteVC`` merged in on a first contact -- advancing the reading
      snapshot (Alg. 2 line 9);
    * prepare harvests the VAS of overwritten versions; decide propagates
      the merged set into the new versions (transitive anti-dependencies);
    * committed read-only transactions send ``Remove`` to every contacted
      node to garbage-collect their VAS entries.
    """

    protocol_name = "fwkv"
    # Alg. 3 lines 3/12: both transaction classes lock the key; the
    # table's shared mode lets read handlers overlap each other.
    reads_lock = True

    def __init__(self, node: Node, shared: SharedState) -> None:
        super().__init__(node, shared)
        node.on(MessageType.REMOVE, self.on_remove)
        # Outgoing Remove batching: destination -> pending identifiers.
        self._pending_removes: dict = {}
        self._remove_flush_scheduled = False
        # A queued read must be the retry's *first*, which is fresh only here.
        self.retries_in_line = shared.config.fwkv_fresh_update_reads

    def _on_volatile_wiped(self) -> None:
        # Pending Remove identifiers were never sent; they name VAS
        # entries in stores that survived, but re-deriving them is not
        # possible from the WAL -- dropping them only delays VAS cleanup
        # (bounded growth, never a correctness issue).
        self._pending_removes = {}
        self._remove_flush_scheduled = False

    # ------------------------------------------------------------------
    # Read-side hooks
    # ------------------------------------------------------------------
    def _stand_in_line(self, line, request: ReadRequestBody):
        """Wait for the key's place in ``line`` (DESIGN.md 4) and hold it
        until our own prepare has locked or voted no (``_handle_prepare``),
        at most ``lock_timeout``: a head that never prepares costs its
        successors that much, once.  A waiter waits without bound -- or,
        under an RPC deadline, half-way to it (the reply must still be in
        time), and is then served as an ordinary read."""
        deadline = self.node.rpc.config.request_timeout
        key, owner = request.key, request.txn_id
        place = line.take_place(key, owner, deadline and deadline / 2)
        if place is not None and (yield place):
            self.sim.call_later(
                self.shared.config.lock_timeout, self._place_expired, line, key, owner
            )

    def _place_expired(self, line, key: Hashable, owner: int) -> None:
        if line.leave((key,), owner):
            self.metrics.count("places_expired")

    def _select_version(self, request: ReadRequestBody) -> Tuple[Version, int]:
        chain = self.store.chain(request.key)
        if request.is_read_only:
            return select_read_only_version(
                chain, request.vc, request.has_read, request.txn_id, request.key
            )
        return select_update_version(chain, request.vc, request.has_read, request.key)

    def _register_visible_read(
        self, request: ReadRequestBody, version: Version
    ) -> None:
        if request.is_read_only and self.shared.config.fwkv_visible_reads:
            self.store.vas_add(version, request.txn_id)  # Alg. 3 line 8

    def _freshness_bound(
        self, request: ReadRequestBody, version: Version
    ) -> Optional[Tuple[int, ...]]:
        """The ``maxVC`` of the ReadReturn message.

        On a *fresh contact* -- the first read of this node by a read-only
        transaction, or the very first read of an update transaction --
        the node's current ``siteVC`` is merged in, advancing the snapshot
        to "the latest timestamp of N" as Figures 2-4 show -- bar the
        entries of sites already read: raising one would admit, to reads
        still to come, the commits this read was kept from (read skew).
        Otherwise the bound is just the version's commit clock.
        """
        if request.is_read_only:
            fresh = not request.has_read[self.node_id]
        else:
            fresh = (
                self.shared.config.fwkv_fresh_update_reads
                and not any(request.has_read)
            )
        if fresh:
            return version.vc.merged_tuple(self.site_vc, keep=request.has_read)
        return version.vc.to_tuple()

    # ------------------------------------------------------------------
    # Commit-side hooks
    # ------------------------------------------------------------------
    def _collect_antideps(self, writes: Iterable[Hashable]):
        """Alg. 5 lines 8-10: harvest the VAS of versions being overwritten."""
        collected = set()
        if not self.shared.config.fwkv_visible_reads:
            return NOTHING_COLLECTED
        for key in writes:
            if key in self.store:
                collected.update(self.store.chain(key).latest.vas or ())
        if collected:
            yield from self.cpu.consume(VAS_ITEM * len(collected))
        return frozenset(collected) or NOTHING_COLLECTED

    def _on_versions_installed(
        self, versions: List[Version], collected: frozenset
    ):
        """Alg. 5 lines 18-20: propagate anti-dependencies transitively."""
        if collected:
            yield from self.cpu.consume(
                VAS_ITEM * len(collected) * len(versions)
            )
            for version in versions:
                self.store.vas_extend(version, collected)

    def _on_update_commit_decided(self, txn: Transaction) -> None:
        # Figure 6's metric: anti-dependencies one update transaction
        # collected across all its prepare participants.
        self.metrics.on_antidep_collected(len(txn.collected_set))

    def _commit_read_only(self, txn: Transaction) -> None:
        """Alg. 4 lines 2-8: Remove messages for VAS garbage collection.

        With ``remove_broadcast`` (default) every node is notified, because
        commit-time propagation may have copied the identifier to nodes the
        transaction never contacted; otherwise only contacted nodes are,
        as in the paper's pseudocode.
        """
        config = self.shared.config
        if not txn.read_keys or not config.removes_enabled:
            return
        if config.remove_broadcast:
            sites = config.node_ids
        else:
            sites = {self.directory.site(key) for key in txn.read_keys}
        for site in sites:
            self._pending_removes.setdefault(site, []).append(txn.txn_id)
        if not self._remove_flush_scheduled:
            self._remove_flush_scheduled = True
            self.sim.call_later(REMOVE_FLUSH_INTERVAL, self._flush_removes)

    def _on_client_abort(self, txn: Transaction) -> None:
        # A rolled-back read-only (or partially-read) transaction must
        # still erase its visible-read registrations everywhere.
        self._commit_read_only(txn)

    def _flush_removes(self) -> None:
        self._remove_flush_scheduled = False
        pending, self._pending_removes = self._pending_removes, {}
        for site in sorted(pending):
            self.node.send(site, MessageType.REMOVE, RemoveBody(tuple(pending[site])))

    # ------------------------------------------------------------------
    # FW-KV-only handler
    # ------------------------------------------------------------------
    def on_remove(self, envelope: Envelope) -> None:
        """Alg. 6 lines 5-10, via the store's reverse index."""
        body: RemoveBody = envelope.payload
        self.store.vas_remove_txns(body.txn_ids, self.sim.now)
