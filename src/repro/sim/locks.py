"""A FIFO-fair simulated readers/writer lock with acquisition timeouts.

The FW-KV and Walter protocols both lock keys during two-phase commit and
(in FW-KV) during read handling.  The paper resolves lock conflicts with a
timeout (1 ms on the authors' testbed): a prepare that cannot lock in time
votes *no* and the transaction aborts.  :class:`RWLock` implements that
behaviour: each acquire returns an event delivering ``True`` when the
lock was granted or ``False`` when the timeout fired first.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Hashable, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator, Timer

Owner = Hashable

_READ = "r"
_WRITE = "w"


class LockError(RuntimeError):
    """Misuse of a simulated lock (double release, upgrade attempt, ...)."""


class _Request:
    __slots__ = ("owner", "kind", "event", "timer")

    def __init__(self, owner: Owner, kind: str, event: Event) -> None:
        self.owner = owner
        self.kind = kind
        self.event = event
        self.timer: Optional["Timer"] = None


class RWLock:
    """A fair readers/writer lock, reentrant per owner for the same mode.

    Grant order is strict FIFO from the wait queue: a read request queued
    behind a write request waits for that write, which prevents writer
    starvation.  Consecutive read requests at the head are granted together.
    """

    __slots__ = ("sim", "_holders", "_queue")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        # owner -> [mode, count]
        self._holders: Dict[Owner, list] = {}
        self._queue: Deque[_Request] = deque()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_locked(self) -> bool:
        return bool(self._holders)

    @property
    def write_held(self) -> bool:
        # A writer holds alone, so the first holder's mode answers it.
        for mode, _count in self._holders.values():
            return mode == _WRITE
        return False

    def held_by(self, owner: Owner) -> Optional[str]:
        """Mode held by ``owner`` (``"r"``/``"w"``) or ``None``."""
        entry = self._holders.get(owner)
        return entry[0] if entry else None

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    def acquire_read(self, owner: Owner, timeout: Optional[float] = None) -> Event:
        return self._acquire(owner, _READ, timeout)

    def acquire_write(self, owner: Owner, timeout: Optional[float] = None) -> Event:
        return self._acquire(owner, _WRITE, timeout)

    def _acquire(self, owner: Owner, kind: str, timeout: Optional[float]) -> Event:
        entry = self._holders.get(owner)
        if entry is not None:
            if entry[0] != kind:
                raise LockError(
                    f"owner {owner!r} holds the lock in mode {entry[0]!r} and "
                    f"requested mode {kind!r}; upgrades are not supported"
                )
            entry[1] += 1
        elif not self._queue and not (
            self._holders if kind is _WRITE else self.write_held
        ):
            # Uncontended: what _drain would decide for a lone request at
            # the head of an empty queue, without queueing it first.
            self._holders[owner] = [kind, 1]
        else:
            event = Event(self.sim, "lock-w" if kind is _WRITE else "lock-r")
            request = _Request(owner, kind, event)
            self._queue.append(request)
            self._drain()
            if not event.triggered and timeout is not None:
                request.timer = self.sim.call_later(timeout, self._expire, request)
            return event
        return self.sim.granted

    def _expire(self, request: _Request) -> None:
        if request.event.triggered:
            return
        self._queue.remove(request)
        request.event.succeed(False)
        # Removing a queued request may unblock compatible requests behind it.
        self._drain()

    def _grant(self, request: _Request) -> None:
        self._holders[request.owner] = [request.kind, 1]
        if request.timer is not None:
            request.timer.cancel()
        request.event.succeed(True)

    def _drain(self) -> None:
        while self._queue:
            head = self._queue[0]
            if head.kind == _WRITE:
                if self._holders:
                    break
            else:  # read
                if self.write_held:
                    break
            self._queue.popleft()
            self._grant(head)
            if head.kind == _WRITE:
                break

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------
    def release(self, owner: Owner) -> bool:
        """Drop one hold of ``owner``; ``True`` when that leaves the lock
        idle (no holder, no queued request), so a table may reclaim it."""
        entry = self._holders.get(owner)
        if entry is None:
            raise LockError(f"owner {owner!r} does not hold this lock")
        entry[1] -= 1
        if entry[1] == 0:
            del self._holders[owner]
            self._drain()
        return not self._holders and not self._queue

