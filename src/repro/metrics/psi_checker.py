"""The one consistency oracle over recorded histories (DESIGN.md 7).

:func:`check_psi` decides PSI on the dependency graph -- ww, wr, rw, and
per-origin commit order as the prefix rule ``siteVC``'s in-order apply
promises -- as "no cycle with fewer than two rw edges" (Cerone &
Gotsman); :func:`check_fresh` is FW-KV's claim on top.  The three older
names are views of the two verdicts.
"""

from __future__ import annotations

import gc
import heapq
from bisect import bisect_left, insort
from itertools import combinations
from typing import Dict, Hashable, List, NamedTuple, Optional, Tuple

from repro.metrics.history import History, OpRecord, TxnRecord

#: (key, vid) -> (origin node, origin sequence number, creating txn id)
VersionCatalog = Dict[Tuple[Hashable, int], Tuple[int, int, Optional[int]]]

#: What a violation is (a cycle gets each kind it fits; last two: check_fresh).
LOST_UPDATE, READ_SKEW, SITE_ORDER, CYCLE = (
    "lost update", "read skew", "site order", "cycle")
STALE_FIRST_READ, LONG_FORK = "stale first read", "observable long fork"


class Violation(NamedTuple):
    kinds: Tuple[str, ...]
    cycle: Tuple[int, ...]  # from the reader whose rw edge closes it
    detail: str


class CheckResult(NamedTuple):
    violations: List[Violation]
    ok = property(lambda self: not self.violations)
    __bool__ = ok.fget


def catalog_of(history: History) -> VersionCatalog:
    """The catalog a history implies by itself: its recorded writes."""
    return {
        (op.key, op.vid): (record.node_id, record.seq_no or 0, record.txn_id)
        for record in history.committed_updates() for op in record.writes()
    }


def check_psi(
    history: History, catalog: Optional[VersionCatalog] = None
) -> CheckResult:
    """Every one-rw cycle, named (``catalog``: by default the history's own)."""
    # Acyclic containers, none freed early: a collector pass finds nothing.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _check_psi(history, catalog_of(history) if catalog is None else catalog)
    finally:
        if collecting:
            gc.enable()


def _check_psi(history: History, catalog: VersionCatalog) -> CheckResult:
    # Topological tie-break: a read-only transaction as early as it may go,
    # an update at its commit -- a sound history's rw edges point forward.
    priority = {
        r.txn_id: r.start_time if r.is_read_only else r.end_time for r in history
    }
    chains: Dict[Hashable, list] = {}
    for (key, vid), (_origin, _seq, writer) in catalog.items():
        if writer is not None:  # else loaded: precedes everything
            chains.setdefault(key, []).append((vid, writer))
            priority.setdefault(writer, 0.0)
    succ: Dict[int, List[int]] = {txn: [] for txn in priority}  # ww, wr

    def edges(order):
        for before, after in zip(order, order[1:]):
            if before != after:
                succ[before].append(after)

    for chain in chains.values():
        chain.sort()
        edges([writer for _vid, writer in chain])  # ww
    for record in history:  # wr
        for op in record.ops:
            entry = catalog.get((op.key, op.vid)) if op.kind == "r" else None
            if entry is not None and entry[2] is not None:
                edges([entry[2], record.txn_id])

    indegree = dict.fromkeys(succ, 0)
    for out in succ.values():
        for txn in out:
            indegree[txn] += 1
    ready = [(priority[txn], txn) for txn, d in indegree.items() if not d]
    heapq.heapify(ready)
    order = []
    while ready:
        order.append(heapq.heappop(ready)[1])
        for after in succ[order[-1]]:
            indegree[after] -= 1
            if not indegree[after]:
                heapq.heappush(ready, (priority[after], after))
    order += [txn for txn, d in indegree.items() if d]  # on non-rw cycles
    pos = {txn: placed for placed, txn in enumerate(order)}

    def path(source: int, target: int) -> Optional[Tuple[int, ...]]:
        """The nodes of a non-rw path ``source ->+ target``, bar the last."""
        parent, stack = {source: source}, [source]
        while stack:
            node = stack.pop()
            for after in succ[node]:
                if after == target:
                    route = [node]
                    while node != source:
                        node = parent[node]
                        route.append(node)
                    return tuple(reversed(route))
                if pos[after] < pos[target] and after not in parent:
                    parent[after] = node
                    stack.append(after)
        return None

    def named(cycle, kinds, edge):
        cycle = tuple(txn for txn in cycle if txn is not None)  # bar loads
        rest = " -> ".join(map(str, cycle[1:] + cycle[:1]))
        return Violation(kinds, cycle, f"{cycle[0]} -{edge}-> {rest}")

    found = [  # a backward non-rw edge: only inside a non-rw cycle
        named((txn,) + route, (CYCLE,), "ww/wr")
        for txn in succ for after in succ[txn]
        if pos[after] < pos[txn] and (route := path(after, txn))
    ]
    for record in history:  # rw, and the per-origin prefix rule
        floor = None
        for op in record.ops:
            if op.kind != "r":
                continue
            missed = None
            if (op.latest_vid_at_read or 0) > op.vid:
                floor = floor or _floor(record, catalog)
                missed = _missed(op, floor, catalog)
            reader, chain = record.txn_id, chains.get(op.key, ())
            at = bisect_left(chain, (op.vid + 1,))
            writer = chain[at][1] if at < len(chain) else reader
            route = None
            if writer != reader and pos[writer] < pos[reader]:
                route = path(writer, reader)
            if route is not None:
                kinds = _kinds(record, op, chain[at:], chains)
                kinds += (SITE_ORDER,) * (missed is not None)
                found.append(named(
                    (reader,) + route, kinds or (CYCLE,), f"rw {op.key!r}@{op.vid}"))
            elif missed is not None:  # closed by origin order alone
                found.append(named(
                    (reader, *missed), (SITE_ORDER,), f"rw {op.key!r}@{op.vid}"))
    return CheckResult(found)


def _kinds(record: TxnRecord, op: OpRecord, later: list, chains) -> tuple:
    """The data shapes the cycle closed by ``record``'s rw edge on
    ``op.key`` fits; ``later``: the retained versions after the read."""
    reads = {r.key: r.vid for r in record.ops if r.kind == "r"}
    later_writers = {w for _vid, w in later} - {record.txn_id}
    return tuple(kind for kind, fits in (
        (LOST_UPDATE, any(w.kind == "w" and w.key == op.key for w in record.ops)),
        (READ_SKEW, any(  # a later writer of op.key wrote what it saw
            writer in later_writers
            for q, read in reads.items() if q != op.key
            for vid, writer in chains.get(q, ()) if vid <= read
        )),
    ) if fits)


def _floor(record: TxnRecord, catalog: VersionCatalog) -> Dict[int, tuple]:
    """origin -> (highest seq ``record``'s snapshot read from it, its writer)."""
    floor: Dict[int, tuple] = {}
    for op in record.ops:
        entry = catalog.get((op.key, op.vid)) if op.kind == "r" else None
        if entry is not None and entry[1] >= floor.get(entry[0], (0,))[0]:
            floor[entry[0]] = entry[1:]
    return floor


def _missed(op: OpRecord, floor: Dict[int, tuple], catalog: VersionCatalog):
    """The per-origin prefix rule ``siteVC``'s in-order apply promises: a
    version already where ``op`` read that it missed, though the snapshot
    held a seq of its origin at least as high.  ``(its writer, the later
    seq's writer)`` -- the cycle reader -rw-> one -origin order-> the other
    -wr-> reader -- or None."""
    for vid in range(op.vid + 1, op.latest_vid_at_read + 1):
        entry = catalog.get((op.key, vid))  # None: reclaimed, no evidence
        if entry is not None and entry[1] <= floor.get(entry[0], (0,))[0]:
            return entry[2], floor.get(entry[0], (0, None))[1]
    return None


def _only(kind: str, result: CheckResult) -> CheckResult:
    return CheckResult([v for v in result.violations if kind in v.kinds])


def check_no_read_skew(history: History) -> CheckResult:
    """View: :func:`check_psi`'s fractured reads."""
    return _only(READ_SKEW, check_psi(history))


def check_site_order(history: History, catalog: VersionCatalog) -> CheckResult:
    """View: :func:`check_psi`'s reads that missed a version present at
    their site from an origin prefix the snapshot had passed."""
    return _only(SITE_ORDER, check_psi(history, catalog))


class LongFork(NamedTuple):
    """Reader A saw X not Y, B saw Y not X (see :func:`find_long_forks`)."""

    reader_a: int
    reader_b: int
    writer_x: int
    writer_y: int


def check_fresh(history: History) -> CheckResult:
    """FW-KV's claim over PSI (paper Sections 3.3, 4): every read-only
    transaction's first read returned the latest version at its site, and
    no long fork is observable.  Later first contacts are ``hasRead``'s."""
    found = [
        Violation((STALE_FIRST_READ,), (r.txn_id,), f"{r.txn_id} first read "
                  f"{op.key!r}@{op.vid}, latest at its site @{op.latest_vid_at_read}")
        for r in history.committed_read_only() for op in r.ops[:1]  # all reads
        if op.latest_vid_at_read not in (None, op.vid)
    ]
    return CheckResult(found + [
        Violation((LONG_FORK,), (f.reader_a, f.writer_y, f.reader_b, f.writer_x),
                  repr(f))
        for f in find_long_forks(history)
    ])


def find_long_forks(history: History) -> List[LongFork]:
    """View: :func:`check_fresh`'s long forks -- observable ones: both
    writers committed before either reader began, and each missed version
    was already where it was read.  Only such stale readers are paired."""
    records = {record.txn_id: record for record in history}
    versions: Dict[Hashable, list] = {}
    for (key, vid), (_origin, _seq, writer) in catalog_of(history).items():
        insort(versions.setdefault(key, []), (vid, writer))

    def ended(txn_id: int, by: float) -> bool:
        return txn_id in records and records[txn_id].end_time <= by

    stale = []  # (reader, {key: vid read}, [(key, next vid, its writer)])
    for record in history.committed_read_only():
        missed = []
        for op in record.ops:
            chain = versions.get(op.key, ()) if op.kind == "r" else ()
            at = bisect_left(chain, (op.vid + 1,))
            if at < len(chain) and chain[at][0] <= (op.latest_vid_at_read or 0):
                if ended(chain[at][1], record.start_time):
                    missed.append((op.key,) + chain[at])
        if missed:
            reads = {op.key: op.vid for op in record.ops if op.kind == "r"}
            stale.append((record, reads, missed))
    return [
        LongFork(a.txn_id, b.txn_id, writer_x, writer_y)
        for (a, reads_a, missed_a), (b, reads_b, missed_b) in combinations(stale, 2)
        for x, vx, writer_x in missed_b if reads_a.get(x, -1) >= vx
        for y, vy, writer_y in missed_a if reads_b.get(y, -1) >= vy
        if writer_y != writer_x
        and ended(writer_x, a.start_time) and ended(writer_y, b.start_time)
    ]
