"""The discrete-event simulator: virtual clock plus a deterministic heap."""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.sim.events import Event
from repro.sim.process import Process, ProcessGenerator


class SimulationCrash(RuntimeError):
    """Raised when a process dies with an exception nobody was joining."""


class Timer:
    """Handle for a scheduled callback; :meth:`cancel` prevents it firing."""

    __slots__ = ("when", "_cancelled", "_sim")

    def __init__(self, when: float, sim: "Optional[Simulator]" = None) -> None:
        self.when = when
        self._cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        if not self._cancelled:
            self._cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


#: Shared marker for schedule entries nobody can cancel (event dispatch,
#: message delivery, process starts).  Those are the bulk of all entries;
#: sharing one inert Timer instead of allocating one per entry keeps the
#: scheduler's hot path allocation-light.
_NEVER_CANCELLED = Timer(0.0)


class Simulator:
    """Deterministic discrete-event scheduler.

    Entries are ordered by ``(time, sequence)`` where the sequence number is
    a global insertion counter, so same-time callbacks run in the order they
    were scheduled.  This makes whole-system runs reproducible for a fixed
    seed and program.

    Two structures back the schedule without changing that total order:

    * ``_ready`` is a FIFO of entries scheduled *at the current time*
      (``call_soon`` and same-time ``call_at``).  Because ``now`` never
      decreases and the sequence counter is global, appends keep the deque
      sorted by ``(when, sequence)``, so the head is its minimum and a
      ``call_soon`` storm bypasses ``heapq`` entirely.
    * ``_heap`` holds future-time entries.  Cancelled timers are counted
      and lazily compacted out once they outnumber live entries (retried
      RPCs and condition-variable waits cancel far-future deadlines by the
      thousands; without compaction they dominate the heap).
    """

    #: Compact only past this size -- rebuilding tiny heaps isn't worth it.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Timer, Callable[..., None], tuple]] = []
        self._ready: Deque[Tuple[float, int, Timer, Callable[..., None], tuple]] = deque()
        self._sequence = 0
        self._cancelled_count = 0
        self._crashes: List[Tuple[Process, BaseException]] = []
        #: Callbacks executed so far (perf harness: events per wall-second).
        self.executed_count = 0
        #: The granted event (value ``True``) an uncontended lock acquire returns.
        self.granted = Event(self, "granted").succeed(True)

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> Timer:
        """Run ``fn(*args)`` at virtual time ``when``."""
        now = self.now
        if when < now:
            raise ValueError(f"cannot schedule in the past ({when} < {now})")
        timer = Timer(when, self)
        entry = (when, self._sequence, timer, fn, args)
        self._sequence += 1
        if when == now:
            self._ready.append(entry)
        else:
            heapq.heappush(self._heap, entry)
        return timer

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> Timer:
        """Run ``fn(*args)`` after ``delay`` units of virtual time."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.call_at(self.now + delay, fn, *args)

    def call_soon(self, fn: Callable[..., None], *args: Any) -> Timer:
        """Run ``fn(*args)`` at the current virtual time, after pending work."""
        now = self.now
        timer = Timer(now, self)
        self._ready.append((now, self._sequence, timer, fn, args))
        self._sequence += 1
        return timer

    # ------------------------------------------------------------------
    # Internal no-handle scheduling (hot paths)
    # ------------------------------------------------------------------
    def _post_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """``call_soon`` without a cancellation handle.

        For internal callers that never cancel (event dispatch, process
        starts); skips the per-entry Timer allocation.  Ordering is
        identical to ``call_soon`` -- same global sequence counter.
        """
        self._ready.append((self.now, self._sequence, _NEVER_CANCELLED, fn, args))
        self._sequence += 1

    def _post_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """``call_at`` without a cancellation handle (same ordering)."""
        assert when >= self.now, "cannot schedule in the past"
        if when == self.now:
            self._ready.append((when, self._sequence, _NEVER_CANCELLED, fn, args))
        else:
            heapq.heappush(
                self._heap, (when, self._sequence, _NEVER_CANCELLED, fn, args)
            )
        self._sequence += 1

    def _wake(self, fn: Callable[[Any], None], arg: Any) -> None:
        """Resume a waiter as the *last* act of the running scheduler entry.

        ``fn(arg)`` would be the next entry popped exactly when the ready
        queue is empty and no heap entry is due at ``now``: then it runs
        in place, saving the hop; otherwise it queues behind what is due.
        Either way callbacks run in ``_post_soon``'s order, so no seeded
        run can tell the difference (DESIGN.md, "Ordering contract").
        """
        heap = self._heap
        if self._ready or (heap and heap[0][0] <= self.now):
            self._post_soon(fn, arg)
        else:
            fn(arg)

    # ------------------------------------------------------------------
    # Waitables
    # ------------------------------------------------------------------
    def event(self, name: Optional[str] = None) -> Event:
        """Create a fresh pending event bound to this simulator."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that succeeds with ``value`` after ``delay``: a pure
        pause (CPU charges, think time, retry backoff).  Nobody cancels
        one, so no :class:`Timer` handle is allocated; a deadline that may
        lose its race is a :meth:`call_later` timer, cancelled in place.
        A process that only pauses yields the ``float`` delay itself.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        ev = Event(self, "timeout")
        self._post_at(self.now + delay, ev.succeed_tail, value)
        return ev

    #: The same pause under its older name.
    sleep = timeout

    def spawn(self, gen: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process driving ``gen``; returns the joinable process."""
        return Process(self, gen, name=name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the schedule drains or the clock passes ``until``.

        Returns the final virtual time.  Raises :class:`SimulationCrash` if
        any process died unhandled during the run.

        The next callback is whichever of the ready-queue head and the live
        heap top has the smaller ``(time, sequence)`` key -- one heap's
        total order.  An unbounded run is the same loop, bound at infinity.
        """
        bound = float("inf") if until is None else until
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        crashes = self._crashes
        executed = 0
        try:
            while True:
                # _note_cancel may have rebuilt the heap during a
                # callback, so re-read the attribute each iteration.
                heap = self._heap
                while heap and heap[0][2]._cancelled:
                    pop(heap)
                    if self._cancelled_count:
                        self._cancelled_count -= 1
                while ready and ready[0][2]._cancelled:
                    popleft()
                # Keys are unique ``(time, sequence)`` prefixes, so tuple
                # order never reaches the timer or the callback.
                if ready and (not heap or ready[0] < heap[0]):
                    if ready[0][0] > bound:
                        break
                    entry = popleft()
                elif heap:
                    if heap[0][0] > bound:
                        break
                    entry = pop(heap)
                else:
                    break
                when, _seq, _timer, fn, args = entry
                self.now = when
                executed += 1
                fn(*args)
                if crashes:
                    self._check_crashes()
        finally:
            self.executed_count += executed
        if until is not None:
            self.now = max(self.now, until)
        self._check_crashes()
        return self.now

    def run_process(self, gen: ProcessGenerator, name: Optional[str] = None) -> Any:
        """Spawn ``gen``, run the simulation to quiescence, return its value."""
        proc = self.spawn(gen, name=name)
        # Register as a joiner so a failure re-raises below as the original
        # exception instead of surfacing as an unhandled SimulationCrash.
        proc.add_callback(lambda _event: None)
        self.run()
        if not proc.triggered:
            raise RuntimeError(
                f"process {proc.name!r} never finished: simulation deadlocked"
            )
        return proc.value

    def _peek_time(self) -> Optional[float]:
        """Time of the next live entry, discarding cancelled timers."""
        ready = self._ready
        while ready and ready[0][2]._cancelled:
            ready.popleft()
        heap = self._heap
        while heap and heap[0][2]._cancelled:
            heapq.heappop(heap)
            if self._cancelled_count:
                self._cancelled_count -= 1
        return min((q[0][0] for q in (ready, heap) if q), default=None)

    def _note_cancel(self) -> None:
        """Timer-cancellation hook: lazily compact the heap.

        Once cancelled entries outnumber live ones (and the heap is big
        enough to matter), rebuild the heap with only live entries.  The
        counter over-approximates -- cancelled ready-queue entries count
        too -- which only makes compaction marginally more eager.
        """
        count = self._cancelled_count + 1
        heap = self._heap
        if count >= self._COMPACT_MIN and count * 2 > len(heap):
            live = [entry for entry in heap if not entry[2]._cancelled]
            heapq.heapify(live)
            self._heap = live
            self._cancelled_count = 0
        else:
            self._cancelled_count = count

    # ------------------------------------------------------------------
    # Crash accounting
    # ------------------------------------------------------------------
    def report_crash(self, process: Process, exc: BaseException) -> None:
        self._crashes.append((process, exc))

    def _check_crashes(self) -> None:
        if self._crashes:
            process, exc = self._crashes[0]
            raise SimulationCrash(
                f"process {process.name!r} crashed at t={self.now:.6f}: {exc!r}"
            ) from exc

    @property
    def pending_count(self) -> int:
        """Number of scheduled (possibly cancelled) entries still held."""
        return len(self._heap) + len(self._ready)
