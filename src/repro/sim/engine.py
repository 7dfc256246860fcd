"""Generator-based discrete-event simulation engine.

Processes are plain Python generators that ``yield`` awaitable
:class:`Event` objects.  The engine resumes a process when the event it is
waiting on triggers.  Example::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(100)          # advance simulated time by 100 ns
        return "done"

    proc = sim.spawn(worker(sim))
    sim.run()
    assert proc.value == "done"
    assert sim.now == 100

Determinism: events scheduled for the same timestamp trigger in schedule
order; there is no wall-clock or hash-order dependence anywhere.

Dispatch is one virtual call: the loop takes the next queue entry and
calls its ``_fire``.  For every event defined here that sets the value
and runs the callbacks.  A subclass may do engine work there instead
and fire later: :class:`repro.sim.resources.Charge`, a whole CPU charge,
is dispatched twice (grant, then expiry) and wakes its waiter only the
second time.  An enabled profiler (``repro.perf``) is told of each
dispatch before it happens, both of a charge's included; it counts
them and reads no clock.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import SimulationError
from repro.perf.profiler import get_default_profiler

__all__ = ["AllOf", "AnyOf", "Event", "Process", "Simulator", "Timeout",
           "exponential_backoff_ns"]

PENDING = object()


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; :meth:`succeed` or :meth:`fail` schedules it to
    trigger at the current simulation time (after events already queued for
    that time), at which point all registered callbacks run in registration
    order.

    The whole family is slotted (a run allocates one event per wait, so
    the per-instance ``__dict__`` was a measurable share of host time):
    a subclass must declare ``__slots__`` too, and nothing may hang ad-hoc
    attributes on an event.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_scheduled",
                 "_pending_value", "_pending_exception", "__weakref__")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = PENDING
        self._exception: Optional[BaseException] = None
        self._scheduled = False

    # -- state --------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has fired (successfully or not)."""
        return self._value is not PENDING

    @property
    def ok(self) -> bool:
        """True if the event fired without an exception."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The event's payload; raises if the event failed or is pending."""
        if self._value is PENDING:
            raise SimulationError("event value read before it triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Schedule this event to fire successfully at the current time."""
        # ``_scheduled`` is set before an event can fire and never
        # cleared, so it covers "already triggered" as well.
        if self._scheduled:
            raise SimulationError("event triggered twice")
        self._scheduled = True
        self._pending_value = value
        self._pending_exception = None
        self.sim._immediate.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule this event to fire with an exception at the current time."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._scheduled:
            raise SimulationError("event triggered twice")
        self._scheduled = True
        self._pending_value = PENDING
        self._pending_exception = exception
        self.sim._immediate.append(self)
        return self

    def _fire(self) -> None:
        """Called by the simulator when this event comes off the queue."""
        if self._pending_exception is not None:
            self._exception = self._pending_exception
            self._value = None
        else:
            self._value = self._pending_value
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    # -- composition ----------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires (immediately if fired)."""
        if self.triggered:
            callback(self)
        else:
            self.callbacks.append(callback)


def whole_ns(value: Any, what: str) -> int:
    """``value`` as integer nanoseconds; ``SimulationError`` if non-numeric.

    The one coercion rule for every duration handed to the engine (a
    timeout's delay, a charge's cost).
    """
    try:
        return int(value)
    except (TypeError, ValueError):
        raise SimulationError(f"non-numeric {what}: {value!r}")


class Timeout(Event):
    """An event that fires after a fixed delay.  Created via ``sim.timeout``."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        # Coerce here, not just in Simulator.timeout: a float delay on a
        # directly constructed Timeout would drift sim.now off integer
        # nanoseconds for every event scheduled after it.
        if type(delay) is not int:
            delay = whole_ns(delay, "timeout delay")
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self._scheduled = True
        self._pending_value = value
        self._pending_exception = None
        sim._schedule(delay, self)


def exponential_backoff_ns(base_ns: int, attempt: int) -> int:
    """Delay before retry ``attempt`` (1-based): ``base_ns`` doubled per retry.

    The one backoff schedule of every retry loop (NVMe resubmission, RPC
    retransmission, cluster failover); integer ns, so exact.  ``attempt``
    must be >= 1 (the first retry waits ``base_ns``): there is no delay
    "before retry 0", and a smaller value raises ``ValueError``.
    """
    return base_ns << (attempt - 1)


class Process(Event):
    """A running generator; also an event that fires when the generator returns.

    The generator's ``return`` value becomes the process's :attr:`value`; an
    uncaught exception inside the generator fails the process event (and
    propagates to anything waiting on it).  A process begun with
    :meth:`Simulator.start` never fires: nothing holds it to wait on.
    """

    __slots__ = ("_generator", "name", "_send", "_wake")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._send = generator.send
        # The callable handed to every event this process waits on, bound
        # once.  It makes the process a reference cycle, so `_resume`
        # drops it when the generator finishes: a finished process is
        # freed by reference counting, not by the cyclic collector.
        self._wake = self._resume
        # Kick off the process at the current time.
        starter = Event(sim)
        starter.callbacks.append(self._wake)
        starter.succeed()

    def _resume(self, event: Event) -> None:
        send = self._send
        while True:
            try:
                if event._exception is not None:
                    target = self._generator.throw(event._exception)
                else:
                    target = send(event._value)
            except StopIteration as stop:
                self._send = self._wake = None
                # A process begun by `Simulator.start` is marked scheduled
                # from the outset: nothing can wait on it, so its finish
                # is not dispatched.
                if not self._scheduled:
                    self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate to waiters
                self._send = self._wake = None
                if not self.callbacks:
                    raise
                if not self._scheduled:
                    self.fail(exc)
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}, not an Event"
                )
            if target._value is not PENDING:
                event = target
                continue
            target.callbacks.append(self._wake)
            return


class AllOf(Event):
    """Fires when every event in ``events`` has fired; value is their values."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._scheduled:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child._value for child in self._events])


class AnyOf(Event):
    """Fires when the first of ``events`` fires; value is ``(index, value)``."""

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf requires at least one event")
        for index, event in enumerate(self._events):
            event.add_callback(lambda ev, i=index: self._on_child(i, ev))

    def _on_child(self, index: int, event: Event) -> None:
        if self._scheduled:
            return
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed((index, event._value))


class Simulator:
    """The event loop: a priority queue of (time, sequence, event).

    Delay-0 schedules (``succeed``/``fail``, zero timeouts) dominate real
    workloads, so they bypass the heap entirely and go to a FIFO deque.
    Order is provably identical to the single-heap design: the clock only
    moves forward, so every heap entry due at time T was pushed (with a
    smaller sequence number) before any delay-0 event could be scheduled
    *at* T — draining heap entries due now before the deque, each side in
    push order, reproduces the old (time, sequence) order exactly.
    """

    def __init__(self):
        self._now = 0
        self._heap: List = []
        self._immediate: deque = deque()
        self._sequence = 0
        # Captured at construction, like Kernel does with the obs bus:
        # when profiling is off this costs one attribute check per event.
        self._profiler = get_default_profiler()

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------

    def _schedule(self, delay: int, event: Event) -> None:
        if delay == 0:
            self._immediate.append(event)
        else:
            self._sequence += 1
            heapq.heappush(self._heap, (self._now + delay, self._sequence, event))

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event that fires ``delay`` nanoseconds from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """A fresh pending event (trigger it with ``succeed``/``fail``)."""
        return Event(self)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a generator as a process; returns its Process event."""
        return Process(self, generator, name)

    def start(self, generator: Generator, name: str = "") -> None:
        """Start a generator as a process nobody waits on.

        Dispatches exactly what :meth:`spawn` does, minus the process's
        finish: with no :class:`Process` handed out, nothing could observe
        it.  Goes through ``self.spawn`` so a wrapper installed there still
        sees the process.  An uncaught exception propagates out of
        :meth:`run` as for any unwaited process.
        """
        self.spawn(generator, name)._scheduled = True

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- running --------------------------------------------------------------

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains, or until simulated time ``until``.

        With ``until`` set, the clock is left exactly at ``until`` even if
        the next event lies beyond it; an ``until`` already in the past is
        an error (the clock never moves backwards), ``until == now`` drains
        what is due now.  The one dispatch loop: queue heads are re-read
        from locals and every event due at the current timestamp fires
        without a per-callback heap pop.  Heap entries due *now* were
        scheduled before anything in the immediate deque could have been
        (see the class docstring), so they fire first.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past: now={self._now}")
        heap = self._heap
        immediate = self._immediate
        profiler = self._profiler
        pop = heapq.heappop
        while heap or immediate:
            if immediate and (not heap or heap[0][0] > self._now):
                event = immediate.popleft()
            else:
                when = heap[0][0]
                if until is not None and when > until:
                    self._now = until
                    return
                when, _seq, event = pop(heap)
                if when < self._now:
                    raise SimulationError("event scheduled in the past")
                self._now = when
            if profiler.enabled:
                profiler.on_step(event, len(heap) + len(immediate))
            event._fire()
        if until is not None and self._now < until:
            self._now = until

    def run_process(self, generator: Generator, until: Optional[int] = None) -> Any:
        """Spawn ``generator``, run the simulation, and return its value."""
        process = self.spawn(generator)
        self.run(until=until)
        if not process.triggered:
            raise SimulationError(
                f"process {process.name!r} did not finish by t={self._now}"
            )
        return process.value
