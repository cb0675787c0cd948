"""Per-key lock table with multi-key acquisition helpers."""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional

from repro.sim import RWLock, Simulator
from repro.sim.locks import LockError


class LockTable:
    """Lazily materialised per-key readers/writer locks.

    Both protocols lock written keys exclusively during 2PC; FW-KV read
    handlers additionally take the shared side so read-only transactions
    "are still allowed to operate simultaneously on read handlers" while
    excluding concurrent conflicting update commits (paper Section 4.3).

    A lock lives only while it has a holder or a queued request: the
    release that empties it drops it from the table, so the table's size
    follows the locks in use, not the keys ever touched.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._locks: Dict[Hashable, RWLock] = {}

    def lock_for(self, key: Hashable) -> RWLock:
        lock = self._locks.get(key)
        if lock is None:
            lock = RWLock(self.sim)
            self._locks[key] = lock
        return lock

    def release(self, key: Hashable, owner) -> None:
        """Release ``owner``'s hold on ``key``; reclaim the lock if idle."""
        lock = self._locks.get(key)
        if lock is None:
            raise LockError(f"owner {owner!r} does not hold a lock on {key!r}")
        if lock.release(owner):
            del self._locks[key]

    # ------------------------------------------------------------------
    # Multi-key helpers (generator subroutines for protocol processes)
    # ------------------------------------------------------------------
    def acquire_write_all(
        self,
        keys: Iterable[Hashable],
        owner,
        timeout: Optional[float],
    ) -> Iterator:
        """Acquire write locks on every key; all-or-nothing.

        Keys are locked in sorted order to shorten (not eliminate) deadlock
        windows; a timeout on any key releases everything already held and
        yields ``False`` -- the caller then votes *no*, exactly as the
        paper's prepare handler does.  Use as
        ``ok = yield from table.acquire_write_all(...)``.
        """
        ordered: List[Hashable] = sorted(keys, key=repr)
        acquired: List[Hashable] = []
        for key in ordered:
            granted = yield self.lock_for(key).acquire_write(owner, timeout)
            if not granted:
                self.release_write_all(acquired, owner)
                return False
            acquired.append(key)
        return True

    def release_write_all(self, keys: Iterable[Hashable], owner) -> None:
        for key in keys:
            self.release(key, owner)

    def acquire_mixed(
        self,
        read_keys: Iterable[Hashable],
        write_keys: Iterable[Hashable],
        owner,
        timeout: Optional[float],
    ) -> Iterator:
        """Acquire shared locks on ``read_keys`` and exclusive locks on
        ``write_keys``, all-or-nothing (2PC-baseline prepare).

        A key in both sets is locked exclusively only.  Keys are acquired
        in one global sorted order.  Yields ``(ok, read_held, write_held)``
        where the held lists are empty on failure.
        """
        writes = set(write_keys)
        reads = set(read_keys) - writes
        plan = sorted(
            [(key, "w") for key in writes] + [(key, "r") for key in reads],
            key=lambda item: repr(item[0]),
        )
        held: List = []
        for key, mode in plan:
            lock = self.lock_for(key)
            if mode == "w":
                granted = yield lock.acquire_write(owner, timeout)
            else:
                granted = yield lock.acquire_read(owner, timeout)
            if not granted:
                for got_key, _mode in held:
                    self.release(got_key, owner)
                return False, [], []
            held.append((key, mode))
        read_held = [key for key, mode in held if mode == "r"]
        write_held = [key for key, mode in held if mode == "w"]
        return True, read_held, write_held

    def release_keys(self, keys: Iterable[Hashable], owner) -> None:
        """Release a set of keys previously granted to ``owner``."""
        for key in keys:
            self.release(key, owner)

    def acquire_read(self, key: Hashable, owner, timeout: Optional[float]):
        """Event for a shared acquisition on one key."""
        return self.lock_for(key).acquire_read(owner, timeout)

    # A table used as a line: one exclusive place per key, granted FIFO.
    def take_place(self, key: Hashable, owner, timeout: Optional[float]):
        """Event for ``owner``'s place on ``key`` (``False`` after
        ``timeout``) -- or ``None`` while it holds or awaits one there: a
        duplicated request takes no second place."""
        lock = self.lock_for(key)
        if lock.held_by(owner) or any(r.owner == owner for r in lock._queue):
            return None
        return lock.acquire_write(owner, timeout)

    def leave(self, keys: Iterable[Hashable], owner) -> bool:
        """Give up ``owner``'s place among ``keys``; whether it held one."""
        for key in keys:
            if key in self._locks and self._locks[key].held_by(owner):
                self.release(key, owner)
                return True
        return False

    def spoken_for(self, key: Hashable, owner) -> bool:
        """Whether ``key``'s place is held, and by someone else."""
        lock = self._locks.get(key)
        return lock is not None and lock.is_locked and not lock.held_by(owner)

    # ------------------------------------------------------------------
    # Introspection (tests / invariants)
    # ------------------------------------------------------------------
    def write_held(self, key: Hashable) -> bool:
        """Whether ``key`` is write-locked; never materialises a lock."""
        lock = self._locks.get(key)
        return lock is not None and lock.write_held

    def any_locked(self) -> bool:
        return any(lock.is_locked for lock in self._locks.values())

    def locked_keys(self) -> List[Hashable]:
        return [key for key, lock in self._locks.items() if lock.is_locked]
