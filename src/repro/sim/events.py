"""One-shot events and event combinators for the simulation kernel."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.simulator import Simulator


class EventState(enum.Enum):
    """Lifecycle of a one-shot event."""

    PENDING = "pending"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


_PENDING = EventState.PENDING
_SUCCEEDED = EventState.SUCCEEDED
_FAILED = EventState.FAILED


class Event:
    """A one-shot waitable value.

    Processes wait on an event by ``yield``\\ ing it.  An event is triggered
    exactly once, either with :meth:`succeed` (delivering a value) or
    :meth:`fail` (delivering an exception).  Callbacks registered with
    :meth:`add_callback` run *through the simulator queue* at the current
    virtual time, which keeps wake-up ordering deterministic and avoids
    unbounded recursion through chains of dependent events
    (:meth:`succeed_tail` may skip the hop, never change the order).
    """

    __slots__ = ("sim", "name", "_state", "_value", "_exc", "_callbacks")

    def __init__(self, sim: "Simulator", name: Optional[str] = None) -> None:
        self.sim = sim
        self.name = name
        self._state = _PENDING
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        # Lazily allocated: most events trigger with zero or one waiter,
        # and event creation is one of the hottest allocation sites.
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> EventState:
        return self._state

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._state is not EventState.PENDING

    @property
    def ok(self) -> bool:
        return self._state is EventState.SUCCEEDED

    @property
    def value(self) -> Any:
        """The delivered value; raises if the event failed or is pending."""
        if self._state is EventState.FAILED:
            assert self._exc is not None
            raise self._exc
        if self._state is EventState.PENDING:
            raise RuntimeError(f"event {self!r} has not been triggered")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._state is not _PENDING:
            raise RuntimeError(f"event {self!r} already triggered")
        self._state = _SUCCEEDED
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            post = self.sim._post_soon
            for callback in callbacks:
                post(callback, self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception, re-raised in waiters."""
        if self._state is not _PENDING:
            raise RuntimeError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = _FAILED
        self._exc = exc
        callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks or ():
            self.sim._post_soon(callback, self)
        return self

    def succeed_tail(self, value: Any = None) -> None:
        """:meth:`succeed` for a caller in tail position (timer expiry, reply
        delivery -- the *last* act of its scheduler entry): the lone waiter
        goes through ``Simulator._wake`` and so resumes inside this entry
        when nothing else is due.  Mid-body callers use :meth:`succeed`:
        woken in place there, the waiter would see their state half-mutated.
        """
        callbacks = self._callbacks
        if callbacks is None or len(callbacks) != 1:
            self.succeed(value)  # no waiter, or several: succeed's order
        else:
            self._callbacks = None
            self.succeed(value)
            self.sim._wake(callbacks[0], self)

    # ------------------------------------------------------------------
    # Waiting
    # ------------------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once the event triggers.

        If the event already triggered, the callback is scheduled for the
        current timestep rather than invoked synchronously.
        """
        if self._state is _PENDING:
            callbacks = self._callbacks
            if callbacks is None:
                self._callbacks = [callback]
            else:
                callbacks.append(callback)
        else:
            self.sim._post_soon(callback, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        return f"<{label} {self._state.value} at t={self.sim.now:.6f}>"


class AllOf(Event):
    """Event that succeeds once every child event has succeeded.

    The delivered value is the list of child values in the order the
    children were given.  If any child fails, this event fails with the
    first failure.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Sequence[Event]) -> None:
        super().__init__(sim, name="AllOf")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child.ok:
            assert child.exception is not None
            self.fail(child.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])
