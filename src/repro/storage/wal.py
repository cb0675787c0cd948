"""Per-node write-ahead log and durable-state replay.

The simulator models a node's memory (``MultiVersionStore``, ``siteVC``,
the prepared table) as volatile: a durable crash (``Nemesis`` kind
``crash_durable``) wipes all of it at restart.  The WAL is the node's
"disk": an append-only record stream written *before* any externally
visible effect of the logged step (vote sent, Decide fan-out, clock
advance), so that :func:`replay` can rebuild exactly the state the rest
of the cluster may have observed.

Record vocabulary (one dataclass per protocol step, see DESIGN.md 5.5):

===================  ===================================================
``LoadRecord``       initial data load (the seed "checkpoint")
``PrepareRecord``    participant voted yes; writes are locked and staged
                     (appended before the vote, never waited on: a crash
                     may lose it, and the decision below re-creates it)
``DecisionRecord``   coordinator decided *commit* and assigned ``seq_no``;
                     carries every participant's staged writes.  Forced
                     before the Decide fan-out -- the one force of a
                     commit: no durable decision record, no Decide ever
                     sent, so recovery may safely abort
``ApplyRecord``      a Decide installed versions and advanced ``siteVC``
``PropagateRecord``  a Propagate advanced ``siteVC`` (clock-only)
``AbortRecord``      a prepared transaction was resolved aborted
``ReplicationRecord`` one replication stream record applied here as a
                     backup (docs/replication.md); replay rebuilds the
                     backup chains and per-primary stream state
``CheckpointRecord`` fingerprinted snapshot of the node's full durable
                     state; replay resets to it and continues with the
                     suffix, so truncating everything below the newest
                     checkpoint (:meth:`WriteAheadLog.truncate_to_\
checkpoint`) keeps replay cost bounded as history grows
===================  ===================================================

Replay is **idempotent** and **order-insensitive within a sequence-number
gap**: per-origin clock advances are buffered until contiguous, records
at-or-below the rebuilt clock are skipped, and duplicated suffixes are
no-ops -- the Hypothesis suite in ``tests/storage/test_wal_properties.py``
pins both properties down.

Crash semantics: :meth:`WriteAheadLog.freeze` marks the crash instant.
Appends while frozen are discarded (and counted) -- the in-flight handler
compute that the network-level crash model lets keep running must not
become durable, since none of its messages escape the crashed node.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple,
)

from repro.core.vector_clock import VectorClock
from repro.core.wire import NOTHING_COLLECTED, ReplicationEntry
from repro.storage.chain import SnapshotVersion
from repro.storage.store import MultiVersionStore

if TYPE_CHECKING:
    from repro.replication.backup import BackupState


@dataclass(frozen=True, slots=True)
class LoadRecord:
    """Initial (pre-run) data load at this node, held as two columns so
    no ``(key, value)`` pair outlives the load."""

    keys: Tuple[Hashable, ...]
    values: Tuple[object, ...]

    @classmethod
    def of(cls, items: Iterable[Tuple[Hashable, object]]) -> "LoadRecord":
        return cls(*(tuple(zip(*items)) or ((), ())))


@dataclass(frozen=True, slots=True)
class PrepareRecord:
    """This node voted yes on a Prepare: writes staged, locks held."""

    txn_id: int
    coordinator: int
    writes: Tuple[Tuple[Hashable, object], ...]


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    """This node, as coordinator, decided *commit* for ``txn_id``.

    Durable before any Decide message leaves the node, so a recovered
    coordinator can answer in-doubt termination queries definitively:
    a transaction with no decision record never sent a Decide and is
    safely presumed aborted.  ``collected`` is the anti-dependency set
    the Decide carried (Alg. 5 lines 18-20), so a re-announced Decide
    excludes the same read-only transactions the lost one would have.
    ``writes`` is the round's writeset, each write tagged with its
    participant site, ``((site, key, value), ...)``: a participant votes
    without waiting for its own ``PrepareRecord``, so this record alone
    must be able to re-stage what a crash took from it (DESIGN.md 5.10,
    C1/C3).  Both default to empty so logs written without them replay.
    """

    txn_id: int
    seq_no: int
    commit_vc: Tuple[int, ...]
    collected: FrozenSet[int] = NOTHING_COLLECTED
    writes: Tuple[Tuple[int, Hashable, object], ...] = ()


@dataclass(frozen=True, slots=True)
class ApplyRecord:
    """A commit's versions installed here; ``siteVC[origin] = seq_no``."""

    txn_id: int
    origin: int
    seq_no: int
    commit_vc: Tuple[int, ...]
    writes: Tuple[Tuple[Hashable, object], ...]


@dataclass(frozen=True, slots=True)
class PropagateRecord:
    """A Propagate advanced ``siteVC[origin]`` to ``seq_no`` (no data)."""

    origin: int
    seq_no: int


@dataclass(frozen=True, slots=True)
class AbortRecord:
    """A prepared transaction was resolved aborted and unstaged."""

    txn_id: int


@dataclass(frozen=True, slots=True)
class ReplicationRecord:
    """One replication stream record this node applied as a backup.

    Logged per applied record, in stream order, so replay rebuilds both
    the verbatim backup chains (``kind="apply"`` installs) and the
    per-primary stream state -- applied high-water mark, replicated
    frontier, staged prepares, and the primary's decision log -- that a
    post-restart promotion would need.  ``entry`` is the record as
    applied (entries are never mutated once on the wire).
    """

    primary: int
    entry: ReplicationEntry


@dataclass(frozen=True, slots=True)
class ViewChangeRecord:
    """A membership view this node committed, logged on the commit so
    replay restores the committed membership (an acked, uncommitted view
    is not logged: the view drivers re-derive an unfinished change)."""

    epoch: int
    #: (node_id, state) pairs -- the full view, not a delta.
    members: Tuple[Tuple[int, str], ...]
    #: (site, final_seq) pairs for decommissioned sites.
    retired: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class CheckpointRecord:
    """A fingerprinted snapshot of the node's entire durable state.

    Replay *resets* to the snapshot (discarding whatever the preceding
    records built -- by construction the snapshot already reflects them)
    and continues with the suffix, which makes a truncated log and the
    full history replay to bit-identical state.  Everything recovery
    needs survives inside the snapshot:

    * the store's exact chain layout, including each chain's GC-advanced
      ``base_vid`` and every version's identity and payload;
    * ``siteVC`` and ``CurrSeqNo``;
    * the in-doubt prepares outstanding at checkpoint time (a crash
      after truncation would otherwise lose their staged writes);
    * the coordinator decision log (TxnStatus answers and own-origin
      re-announcement after a crash).

    ``fingerprint`` is a digest of the store snapshot, verified at
    replay -- a checkpoint that does not restore to exactly the state it
    captured fails loudly instead of silently diverging.
    """

    site_vc: Tuple[int, ...]
    curr_seq_no: int
    #: ``(key, base_vid, (SnapshotVersion, ...))`` per chain.
    chains: Tuple[Tuple[Hashable, int, Tuple[SnapshotVersion, ...]], ...]
    in_doubt: Tuple[PrepareRecord, ...]
    decisions: Tuple[DecisionRecord, ...]
    fingerprint: str
    #: WAL records captured below this checkpoint when it was taken
    #: (bookkeeping for truncation-safety assertions in tests).
    records_below: int = 0
    #: The committed membership view at checkpoint time, as an
    #: ``(epoch, members, retired)`` triple, or ``None`` for a
    #: static-membership node.  Carried (not fingerprinted) so WAL
    #: truncation below the checkpoint cannot lose the view history.
    view: Optional[Tuple] = None


class CheckpointMismatchError(Exception):
    """A checkpoint restored to state that contradicts its fingerprint."""


WalRecord = object  # union of the record dataclasses above


class WriteAheadLog:
    """An append-only durable record stream for one node.

    The log survives the volatile-state wipe of a durable crash; it is
    the only channel through which pre-crash state reaches the recovered
    node.  ``freeze``/``unfreeze`` bracket the down window so post-crash
    handler compute cannot retroactively become durable.
    """

    def __init__(self, *, buffered: bool = False) -> None:
        self._records: List[WalRecord] = []
        self._frozen = False
        #: Appends discarded while frozen (crash-window compute).
        self.discarded = 0
        #: Records dropped by checkpoint truncation, cumulatively.
        self.truncated = 0
        #: Buffered-durability mode (``fsync_latency > 0``): appends land
        #: in a volatile buffer and become durable only when
        #: :meth:`mark_durable` covers them.  Off (default), every append
        #: is durable instantly -- the historical free-sync model.
        self.buffered = buffered
        #: Absolute LSN (== ``truncated`` + buffer index + 1) up to which
        #: records are durable.  Meaningful only in buffered mode.
        self._durable = 0
        #: Hook invoked with the new LSN after every successful append
        #: (the group-commit flusher registers itself here so membership
        #: and checkpoint appends are synced without explicit plumbing).
        self.on_append = None
        #: Completed syncs and records they covered (buffered mode).
        self.syncs = 0
        self.records_synced = 0
        #: Buffered-but-unsynced records dropped at freeze (crash loss).
        self.lost_on_crash = 0

    @property
    def tail_lsn(self) -> int:
        """Absolute LSN of the newest appended record (0 = empty log)."""
        return self.truncated + len(self._records)

    @property
    def durable_lsn(self) -> int:
        """Absolute LSN up to which the log would survive a crash."""
        return self._durable if self.buffered else self.tail_lsn

    def append(self, record: WalRecord) -> int:
        """Append one record; returns its absolute LSN.

        A frozen (mid-crash) log discards the append and returns the
        unchanged tail -- waiting on that LSN covers nothing new, and
        callers on the crash path check :attr:`frozen` anyway.
        """
        if self._frozen:
            self.discarded += 1
            return self.tail_lsn
        self._records.append(record)
        lsn = self.truncated + len(self._records)
        hook = self.on_append
        if hook is not None:
            hook(lsn)
        return lsn

    def append_durable(self, record: WalRecord) -> int:
        """Append with instant durability (setup-time writes: data load).

        The initial load happens before the run -- synchronously, like
        formatting the disk -- so it never competes for sync bandwidth
        and is never part of a crash's lost suffix.
        """
        if self._frozen:
            self.discarded += 1
            return self.tail_lsn
        self._records.append(record)
        lsn = self.truncated + len(self._records)
        if self.buffered and lsn > self._durable:
            self._durable = lsn
        return lsn

    def is_durable(self, lsn: int) -> bool:
        return self.durable_lsn >= lsn

    def mark_durable(self, lsn: int) -> int:
        """One sync completed: records up to ``lsn`` are durable.

        Returns the number of newly durable records.  No-op outside
        buffered mode (everything is always durable there).
        """
        if not self.buffered:
            return 0
        newly = max(min(lsn, self.tail_lsn) - self._durable, 0)
        self._durable += newly
        self.syncs += 1
        self.records_synced += newly
        return newly

    def freeze(self) -> None:
        """Mark the crash instant: later appends are lost, not durable.

        In buffered mode the unsynced suffix -- exactly the records past
        :attr:`durable_lsn` -- is dropped here: it only ever existed in
        the volatile buffer, so the crash loses it.  Commit paths wait
        for their Decision record's group before acknowledging, which is
        what makes this loss invisible to acknowledged transactions.
        """
        self._frozen = True
        if self.buffered:
            lost = self.truncated + len(self._records) - self._durable
            if lost > 0:
                del self._records[len(self._records) - lost:]
                self.lost_on_crash += lost

    def unfreeze(self) -> None:
        """Re-admit appends (recovery has read the surviving records)."""
        self._frozen = False

    @property
    def frozen(self) -> bool:
        return self._frozen

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> Tuple[WalRecord, ...]:
        """A stable snapshot of the surviving records."""
        return tuple(self._records)

    def truncate_to_checkpoint(self) -> int:
        """Drop every record below the newest checkpoint; returns count.

        The caller is responsible for the distributed-safety condition
        (every peer has applied this node's own commit frontier as of the
        checkpoint -- see ``CheckpointManager``); locally the operation
        is always state-preserving because replay resets at the
        checkpoint anyway.  A frozen (mid-crash) log refuses to truncate.
        """
        if self._frozen:
            return 0
        records = self._records
        index = next((position for position in range(len(records) - 1, 0, -1)
                      if isinstance(records[position], CheckpointRecord)), 0)
        if not index:  # no checkpoint, or already the first record
            return 0
        if self.buffered and self._durable < self.truncated + index + 1:
            # The checkpoint itself has not hit disk yet; truncating the
            # records it summarizes would leave a log whose surviving
            # prefix after a crash misses both.  The group-commit flusher
            # syncs it shortly; the next truncation attempt proceeds.
            return 0
        self._records = self._records[index:]
        self.truncated += index
        return index


def checkpoint_fingerprint(
    chains: Iterable[Tuple[Hashable, int, Tuple[SnapshotVersion, ...]]],
    site_vc: Tuple[int, ...],
    curr_seq_no: int,
) -> str:
    """Digest of a checkpoint's store + clock content.

    Keys and values reach the digest through ``repr``, which is stable
    for the plain scalar payloads the simulation stores; the digest is
    compared between capture and restore, both within one process, so
    only self-consistency is required.
    """
    hasher = hashlib.sha256()
    for key, base_vid, versions in sorted(
        chains, key=lambda entry: repr(entry[0])
    ):
        hasher.update(repr((key, base_vid, versions)).encode())
    hasher.update(repr((site_vc, curr_seq_no)).encode())
    return hasher.hexdigest()


def build_checkpoint(
    chains: Iterable[Tuple[Hashable, int, Tuple[SnapshotVersion, ...]]],
    site_vc: VectorClock,
    curr_seq_no: int,
    in_doubt: Iterable[PrepareRecord] = (),
    decisions: Iterable[DecisionRecord] = (),
    records_below: int = 0,
    view: Optional[Tuple] = None,
) -> CheckpointRecord:
    """Capture a node's durable state as a :class:`CheckpointRecord`;
    ``chains`` are :meth:`MultiVersionStore.snapshots` rows."""
    chains = tuple(chains)
    site_vc_tuple = site_vc.to_tuple()
    return CheckpointRecord(
        site_vc=site_vc_tuple,
        curr_seq_no=curr_seq_no,
        chains=chains,
        in_doubt=tuple(sorted(in_doubt, key=lambda record: record.txn_id)),
        decisions=tuple(sorted(decisions, key=lambda record: record.txn_id)),
        fingerprint=checkpoint_fingerprint(
            chains, site_vc_tuple, curr_seq_no
        ),
        records_below=records_below,
        view=view,
    )


def verify_checkpoint(record: CheckpointRecord) -> None:
    """Raise :class:`CheckpointMismatchError` unless the record's chains,
    clock and counter hash to its fingerprint."""
    digest = checkpoint_fingerprint(
        record.chains, record.site_vc, record.curr_seq_no
    )
    if digest != record.fingerprint:
        raise CheckpointMismatchError(
            f"checkpoint fingerprint {record.fingerprint} hashes as {digest}"
        )


def restore_store(record: CheckpointRecord) -> MultiVersionStore:
    """Rebuild the exact chain layout a verified checkpoint captured.

    Reconstructs each chain's GC-advanced ``base_vid`` and dense vid
    sequence directly (the ``install`` API always starts at vid 0).  A
    key loaded and never touched comes back as its value.
    """
    verify_checkpoint(record)
    store = MultiVersionStore()
    for entry in record.chains:
        store.adopt(*entry)
    return store


@dataclass
class ReplayResult:
    """Volatile state rebuilt from a WAL by :func:`replay`."""

    store: MultiVersionStore
    site_vc: VectorClock
    #: txn_id -> PrepareRecord for prepares with no matching apply/abort
    #: (the in-doubt set recovery must terminate).
    in_doubt: Dict[int, PrepareRecord]
    #: txn_id -> DecisionRecord for commits this node coordinated.
    decisions: Dict[int, DecisionRecord]
    #: Highest sequence number this node durably assigned as coordinator.
    curr_seq_no: int
    #: Records consumed (for metrics/assertions).
    replayed: int
    #: Checkpoint records encountered (the last one reset the state).
    checkpoints: int = 0
    #: Newest *committed* membership view on record, as an
    #: ``(epoch, members, retired)`` triple (None = static membership).
    view: Optional[Tuple] = None
    #: primary id -> the backup-side stream state rebuilt from the
    #: node's ReplicationRecords.
    replication: Dict[int, "BackupState"] = field(default_factory=dict)


def replay(records: Iterable[WalRecord], num_nodes: int) -> ReplayResult:
    """Rebuild a node's durable state from its WAL records.

    Clock-advancing records (``ApplyRecord``/``PropagateRecord``) are
    applied in per-origin sequence order regardless of their position in
    the stream: a record at or below the rebuilt ``siteVC`` is skipped
    (idempotence under duplicated prefixes), and a record above the next
    expected sequence number is buffered until the gap closes
    (order-insensitivity within a gap).  Buffered records that never
    become contiguous -- a malformed or truncated log -- are applied at
    the end in sequence order, jumping the clock, rather than silently
    dropped.
    """
    # Imported here, not at module level: ``repro.replication`` imports
    # this module on its way in.
    from repro.replication.backup import BackupState

    store = MultiVersionStore()
    site_vc = VectorClock.zeros(num_nodes)
    in_doubt: Dict[int, PrepareRecord] = {}
    decisions: Dict[int, DecisionRecord] = {}
    curr_seq_no = 0
    replayed = 0
    checkpoints = 0
    view: Optional[Tuple] = None
    replication: Dict[int, BackupState] = {}
    # origin -> {seq_no: record} waiting for its per-origin predecessor.
    pending: Dict[int, Dict[int, WalRecord]] = {}

    def apply_clock_record(record: WalRecord) -> None:
        """Apply an admitted clock record (``admit`` widened the clock)."""
        if isinstance(record, ApplyRecord):
            commit_vc = VectorClock.frozen(record.commit_vc)
            for key, value in record.writes:
                store.install(
                    key, value, commit_vc, origin=record.origin,
                    seq=record.seq_no, writer_txn=record.txn_id,
                )
            in_doubt.pop(record.txn_id, None)
        site_vc[record.origin] = record.seq_no

    def admit(record: WalRecord) -> None:
        """Apply a clock record in order, buffering across gaps."""
        origin, seq_no = record.origin, record.seq_no
        if origin >= len(site_vc):
            site_vc.widen(origin + 1)
        if seq_no <= site_vc[origin]:
            return  # duplicate of an already-applied transition
        if seq_no > site_vc[origin] + 1:
            pending.setdefault(origin, {})[seq_no] = record
            return
        apply_clock_record(record)
        waiting = pending.get(origin)
        while waiting:
            successor = waiting.pop(site_vc[origin] + 1, None)
            if successor is None:
                break
            apply_clock_record(successor)

    for record in records:
        replayed += 1
        if isinstance(record, LoadRecord):
            store.create_many(
                zip(record.keys, record.values), VectorClock.zero(num_nodes)
            )
        elif isinstance(record, PrepareRecord):
            in_doubt[record.txn_id] = record
        elif isinstance(record, DecisionRecord):
            decisions[record.txn_id] = record
            if record.seq_no > curr_seq_no:
                curr_seq_no = record.seq_no
        elif isinstance(record, AbortRecord):
            in_doubt.pop(record.txn_id, None)
        elif isinstance(record, (ApplyRecord, PropagateRecord)):
            admit(record)
        elif isinstance(record, CheckpointRecord):
            # Reset to the snapshot.  The preceding records built exactly
            # the state the snapshot captured (checkpoints are taken from
            # live state, after everything below them was applied), so
            # discarding the rebuilt prefix -- including gap-buffered
            # clock records at or below the snapshot clock -- loses
            # nothing; this is what makes a truncated log replay
            # bit-identically to the full history.
            checkpoints += 1
            store = restore_store(record)
            site_vc = VectorClock(record.site_vc)
            in_doubt = {
                prepare.txn_id: prepare for prepare in record.in_doubt
            }
            decisions = {
                decision.txn_id: decision for decision in record.decisions
            }
            if record.curr_seq_no > curr_seq_no:
                curr_seq_no = record.curr_seq_no
            if record.view is not None:
                view = record.view
            pending.clear()
        elif isinstance(record, ViewChangeRecord):
            if view is None or record.epoch > view[0]:
                view = (record.epoch, record.members, record.retired)
        elif isinstance(record, ReplicationRecord):
            # Backup-side stream state, through the live handler's own
            # interpreter.  Apply installs go straight into the store
            # (never through ``admit``): a backup's verbatim installs do
            # not advance its own clock, exactly as live.
            state = replication.get(record.primary)
            if state is None:
                state = replication[record.primary] = BackupState()
            if record.entry.seq > state.applied:  # else a duplicated prefix
                state.apply(record.entry, store)
        else:
            raise TypeError(f"unknown WAL record {record!r}")

    # Drain never-contiguous leftovers (truncated logs) in seq order.
    for origin in sorted(pending):
        for seq_no in sorted(pending[origin]):
            record = pending[origin][seq_no]
            if seq_no > site_vc[origin]:
                apply_clock_record(record)

    # A committed view wider than the static width the replay started
    # from widens the rebuilt clock (new sites at zero).
    if view is not None and view[1]:
        ids = {member for member, _state in view[1]}
        ids.update(site for site, _final in view[2])
        width = max(ids) + 1
        if width > len(site_vc):
            site_vc.widen(width)

    return ReplayResult(
        store=store,
        site_vc=site_vc,
        in_doubt=in_doubt,
        decisions=decisions,
        curr_seq_no=curr_seq_no,
        replayed=replayed,
        checkpoints=checkpoints,
        view=view,
        replication=replication,
    )


def store_fingerprint(store: MultiVersionStore) -> Dict[Hashable, Tuple]:
    """A comparable, exhaustive snapshot of a store's version chains.

    Captures every version's identity and payload -- ``(vid, origin,
    seq, value, commit vc, writer txn)`` per key in chain order -- so two
    stores compare bit-identical iff their chains do.  Used by the
    recovery tests to compare a recovered node against a never-crashed
    control run.
    """
    return {
        key: tuple(
            (vid, origin, seq, value, vc, writer)
            for vid, (value, vc, origin, seq, writer, _at)
            in enumerate(versions, base_vid)
        )
        for key, base_vid, versions in store.snapshots()
    }


def version_set_fingerprint(store: MultiVersionStore) -> Dict[Hashable, Tuple]:
    """Like :func:`store_fingerprint` but vid-agnostic.

    Two replays that interleave independent origins differently can
    assign different per-key vids to the same version set; this
    fingerprint compares the *set* of installed versions (sorted by
    origin stamp) plus values, which is invariant under such reorderings.
    """
    return {
        key: tuple(sorted(
            (origin, seq, value, vc) for value, vc, origin, seq, _w, _at in versions
        ))
        for key, _base_vid, versions in store.snapshots()
    }
