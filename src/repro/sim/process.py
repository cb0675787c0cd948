"""Generator-driven simulated processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Union

from repro.sim.events import Event, EventState

_PENDING = EventState.PENDING
_SUCCEEDED = EventState.SUCCEEDED

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator

ProcessGenerator = Generator[Union[Event, float], Any, Any]


class Process(Event):
    """A running process; also an event that triggers on completion.

    A process wraps a generator.  Each value the generator ``yield``\\ s must
    be an :class:`Event` (a :class:`Process` is itself an event, so processes
    can join each other), or a ``float`` delay in virtual seconds, which
    resumes it exactly as ``yield sim.timeout(delay)`` would without the
    event.  The process resumes with the event's value (``None`` after a
    delay), or the event's exception is thrown into the generator.  When
    the generator returns, the process succeeds with the returned value;
    an uncaught exception fails the process (and propagates to joiners, or
    crashes the simulation if nobody joined).

    Sub-routines compose with ``yield from``: any helper written as a
    generator of events can be inlined into a process without spawning.
    """

    __slots__ = ("_gen",)

    def __init__(
        self,
        sim: "Simulator",
        gen: ProcessGenerator,
        name: Optional[str] = None,
        tail: bool = False,
    ) -> None:
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you call a plain function instead of a generator function?"
            )
        self._gen = gen
        # ``tail``: the spawner does nothing more in its scheduler entry
        # (message delivery), so the first step may run inside it.
        (sim._wake if tail else sim._post_soon)(self._step, None)

    def _step(self, triggered: Optional[Event]) -> None:
        """Advance the generator by one yield."""
        gen = self._gen
        while True:
            try:
                if triggered is None:
                    target = next(gen)
                elif triggered._state is _SUCCEEDED:
                    target = gen.send(triggered._value)
                else:
                    exc = triggered.exception
                    assert exc is not None
                    target = gen.throw(exc)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - fail the process
                self._fail_process(exc)
                return

            if target.__class__ is float:  # a bare delay
                if target < 0:  # thrown in where ``sim.timeout`` would raise
                    triggered = Event(self.sim).fail(ValueError(f"negative delay {target}"))
                    continue
                # Expiry resumes it as ``Event.succeed_tail`` would a timeout's.
                self.sim._post_at(self.sim.now + target, self.sim._wake, self._step, None)
                return
            if not isinstance(target, Event):
                exc = TypeError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes may only yield Event instances or float delays"
                )
                gen.close()
                self._fail_process(exc)
                return

            if target._state is not _PENDING:
                # Fast path: already-triggered events resume inline, which
                # keeps zero-delay protocol steps from round-tripping through
                # the scheduler and bloating the heap.
                triggered = target
                continue
            target.add_callback(self._step)
            return

    def _fail_process(self, exc: BaseException) -> None:
        handled = bool(self._callbacks)
        self.fail(exc)
        if not handled:
            # Nobody was joining this process when it crashed; surface the
            # failure through the simulator instead of dropping it silently.
            self.sim.report_crash(self, exc)


class PeriodicLoop:
    """A background loop that can be stopped and started again.

    Every ``interval`` virtual seconds (stretched by ``pace(interval)``
    when given; ``None`` never runs) it calls ``body()``, driving the
    result as a subroutine when that is a generator.  Idempotent: a
    second start while running is a no-op, and every start bumps a
    generation the running process checks at each wake-up, so a
    stop/start cycle can never leave two copies of the loop running.
    """

    def __init__(
        self, sim: "Simulator", interval: Optional[float],
        body: Callable[[], Any], name: str,
        pace: Optional[Callable[[float], float]] = None,
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.body = body
        self.name = name
        self.pace = pace
        self.running = False
        self._generation = 0

    def start(self) -> None:
        if self.interval is not None and not self.running:
            self.running = True
            self._generation += 1
            self.sim.spawn(self._run(self._generation), name=self.name)

    def stop(self) -> None:
        self.running = False
        self._generation += 1

    def _run(self, generation: int):
        interval, pace = self.interval, self.pace
        while self._generation == generation:
            yield self.sim.timeout(pace(interval) if pace else interval)
            if self._generation != generation:
                return
            step = self.body()
            if step is not None:
                yield from step
