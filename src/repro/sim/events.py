"""Event primitives for the DES kernel.

An :class:`Event` moves through three states: *pending* (created, not yet
triggered), *triggered* (scheduled on the environment's heap with a value),
and *processed* (its callbacks have run).  Processes wait on events by
yielding them; the environment resumes the process when the event fires.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment

PENDING = object()


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot synchronisation point.

    Parameters
    ----------
    env:
        Owning environment.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok = True
        self._scheduled = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (vs. failed with an exception)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value accessed before trigger")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiting processes see ``exc`` raised."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._ok = False
        self._value = exc
        self.env.schedule(self)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` sim-seconds.

    The value is assigned only when the event actually fires, so a
    pending timeout is not considered triggered (conditions collecting
    fired events rely on this).
    """

    __slots__ = ("delay", "_fire_value")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = float(delay)
        self._fire_value = value
        env.schedule(self, delay=self.delay)

    def _run_callbacks(self) -> None:
        if self._value is PENDING:
            self._value = self._fire_value
        super()._run_callbacks()


class AbsoluteTimeout(Event):
    """An event that fires at an *absolute* simulated time.

    ``env.timeout(delay)`` schedules at ``now + delay``, which re-rounds
    in floating point.  Fast-forward paths that must land on a timestamp
    computed elsewhere (e.g. the exact float the step-by-step path would
    have reached) use this to schedule at that timestamp bit-for-bit.
    """

    __slots__ = ("at", "_fire_value")

    def __init__(self, env: "Environment", when: float, value: Any = None,
                 scheduled_at: Optional[float] = None,
                 seq: Optional[int] = None):
        when = float(when)
        if when < env.now:
            raise SimulationError(
                f"absolute timeout at {when!r} is before current time {env.now!r}"
            )
        super().__init__(env)
        self.at = when
        self._fire_value = value
        env.schedule_at(self, when, scheduled_at, seq)

    def _run_callbacks(self) -> None:
        if self._value is PENDING:
            self._value = self._fire_value
        super()._run_callbacks()


class _Condition(Event):
    """Base for AllOf/AnyOf: waits on a set of child events."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = tuple(events)
        self._count = 0
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("condition mixes events from different environments")
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.processed:
                self._on_child(ev)
            elif ev.triggered:
                # Already scheduled; hook a callback so we observe it.
                assert ev.callbacks is not None
                ev.callbacks.append(self._on_child)
            else:
                assert ev.callbacks is not None
                ev.callbacks.append(self._on_child)

    def _on_child(self, ev: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict:
        return {
            i: ev.value
            for i, ev in enumerate(self.events)
            if ev.triggered and ev.ok
        }


class AllOf(_Condition):
    """Fires once all child events have fired; value maps index -> value."""

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires as soon as any child event fires; value maps index -> value."""

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self.succeed(self._collect())
