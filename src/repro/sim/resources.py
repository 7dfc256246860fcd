"""Capacity-limited resources and FIFO stores for the simulation engine.

:class:`Resource` models anything with a fixed number of slots — CPU cores,
device service units.  Requests carry a priority so interrupt work can jump
ahead of thread work (lower number = more urgent), matching the way the
simulated NVMe completion path preempts application threads for dispatch.

There are two ways to hold a slot.  :meth:`Resource.execute` (and
``CpuSet.run_thread`` / ``run_irq``, which return it) charges a fixed
time: it yields one :class:`Charge`, which the engine grants, holds and
releases by itself, so the caller is resumed once, when the time has been
spent.  Every modelled software layer is such a charge, which is why it
is a single engine object and not a generator around two events.
:meth:`Resource.request` / :meth:`Resource.release` are for a caller that
keeps the slot across waits of its own (a polling read, the device's
bandwidth slots).

:class:`Store` models an unbounded FIFO queue of items — NVMe submission and
completion queues.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Generator, List

from repro.errors import SimulationError
from repro.sim.engine import PENDING, Event, Simulator, whole_ns

__all__ = ["Charge", "CpuSet", "Request", "Resource", "Store"]

_new = object.__new__


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Fires when the slot is granted.  The holder must eventually pass it back
    to :meth:`Resource.release`.
    """

    __slots__ = ("resource", "priority", "granted")

    def __init__(self, sim: Simulator, resource: "Resource", priority: int):
        super().__init__(sim)
        self.resource = resource
        self.priority = priority
        self.granted = False


class Charge(Request):
    """A claim on a slot that also holds it: one whole ``execute``.

    Queued and granted exactly like a :class:`Request`, but the engine
    dispatches it twice.  The first dispatch is the grant: it resumes
    nobody and puts the same object on the heap ``cost`` ns ahead.  The
    second is the expiry: it releases the slot (granting waiters, as
    :meth:`Resource.release` does) and only then fires, so the process
    that yielded it is resumed once per charge, with value ``None``.  A
    charge is not ``triggered`` while it waits or holds.  ``cost`` is
    coerced like a timeout's delay; a charge of no time (``cost <= 0``)
    waits its turn like any other and releases at the grant.  A charge
    abandoned while it holds (its world dropped with operations in
    flight) keeps its slot: nothing will run that simulation again.

    The grant keeps its hop through the immediate queue even when the
    slot is free: pushing the expiry at ``execute`` time would give it an
    earlier sequence number than pushes made by events already queued for
    this instant, and same-timestamp ties would flip.

    Built only by :meth:`Resource.execute`.  Construction, claim and
    grant there, and expiry and release here, are written out inline:
    every modelled software layer is a charge, so on the uncontended path
    a charge costs no Python call beyond ``execute`` and the two
    dispatches.  Only handing a freed slot to a queued waiter goes
    through :meth:`Resource._grant`.
    """

    __slots__ = ("_hold_ns",)  # still to hold; zeroed once the hold starts

    def _fire(self) -> None:
        hold = self._hold_ns
        sim = self.sim
        if hold > 0:
            self._hold_ns = 0
            sim._sequence += 1
            heappush(sim._heap, (sim._now + hold, sim._sequence, self))
            return
        # `Resource.release`, inlined.
        resource = self.resource
        if not self.granted:
            raise SimulationError(
                f"release of ungranted request on {resource.name}")
        self.granted = False
        now = sim._now
        if now != resource._last_change:
            resource._busy_time += resource._in_use * (
                now - resource._last_change)
            resource._last_change = now
        resource._in_use -= 1
        if resource._waiting:
            resource._grant_waiters()
        # `Event._fire`, inlined.  A charge granted from the wait queue had
        # itself as its pending value; `None` drops that cycle.
        self._value = self._pending_value = None
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class Resource:
    """A resource with ``capacity`` identical slots and a priority wait queue."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: List = []
        self._sequence = 0
        # Utilisation accounting: integral of busy slots over time.
        self._busy_time = 0
        self._last_change = sim.now

    @property
    def in_use(self) -> int:
        return self._in_use

    def busy_time(self) -> int:
        """Total busy slot-nanoseconds accumulated so far."""
        return self._busy_time + self._in_use * (self.sim.now - self._last_change)

    def _account(self) -> None:
        # Grant/release pairs at the same timestamp are the common case
        # (uncontended resources); they contribute nothing to the busy-time
        # integral, so skip the arithmetic entirely.
        now = self.sim._now
        if now != self._last_change:
            self._busy_time += self._in_use * (now - self._last_change)
            self._last_change = now

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        return self._claim(Request(self.sim, self, priority))

    def _claim(self, req: Request) -> Request:
        if self._in_use < self.capacity and not self._waiting:
            self._grant(req)
        else:
            self._sequence += 1
            heappush(self._waiting, (req.priority, self._sequence, req))
        return req

    def _grant(self, req: Request) -> None:
        self._account()
        self._in_use += 1
        req.granted = True
        req.succeed(req)

    def release(self, req: Request) -> None:
        """Return a previously granted slot."""
        if not req.granted:
            raise SimulationError(f"release of ungranted request on {self.name}")
        req.granted = False
        self._account()
        self._in_use -= 1
        if self._waiting:
            self._grant_waiters()

    def _grant_waiters(self) -> None:
        """Hand freed slots to queued waiters, most urgent first."""
        while self._waiting and self._in_use < self.capacity:
            _prio, _seq, waiter = heappop(self._waiting)
            self._grant(waiter)

    def execute(self, cost: int, priority: int = 0) -> Generator:
        """Hold one slot for ``cost`` nanoseconds (generator helper).

        Usage inside a process: ``yield from resource.execute(350)``.  The
        one way to charge a resource: a single :class:`Charge`, which the
        engine holds and releases itself.  ``cost <= 0`` holds the slot for
        no time but still waits its turn.  ``cost`` is coerced like a
        timeout's delay.
        """
        if type(cost) is not int:
            cost = whole_ns(cost, "charge cost")
        sim = self.sim
        # Construction, `_claim`, `_grant` and `succeed`, inlined (see
        # `Charge`).
        charge = _new(Charge)
        charge.sim = sim
        charge.callbacks = []
        charge._value = PENDING
        charge._exception = None
        charge.resource = self
        charge.priority = priority
        charge._hold_ns = cost
        if self._in_use < self.capacity and not self._waiting:
            now = sim._now
            if now != self._last_change:
                self._busy_time += self._in_use * (now - self._last_change)
                self._last_change = now
            self._in_use += 1
            charge.granted = charge._scheduled = True
            sim._immediate.append(charge)
        else:
            charge.granted = charge._scheduled = False
            self._sequence += 1
            heappush(self._waiting, (priority, self._sequence, charge))
        yield charge


class CpuSet(Resource):
    """A pool of CPU cores.

    Thread work runs at :data:`PRIORITY_THREAD`; interrupt/dispatch work runs
    at :data:`PRIORITY_IRQ` so it is scheduled ahead of queued thread work,
    approximating hardware interrupt priority on a non-preemptive simulator.
    """

    PRIORITY_IRQ = 0
    PRIORITY_THREAD = 10

    def __init__(self, sim: Simulator, cores: int):
        super().__init__(sim, capacity=cores, name=f"cpu{cores}")
        self.cores = cores

    def run_thread(self, cost: int) -> Generator:
        """Charge ``cost`` ns of thread-priority CPU time."""
        return self.execute(cost, self.PRIORITY_THREAD)

    def run_irq(self, cost: int) -> Generator:
        """Charge ``cost`` ns of interrupt-priority CPU time."""
        return self.execute(cost, self.PRIORITY_IRQ)

class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event that fires with the next
    item (immediately if one is queued).  Items are delivered in put order and
    waiters are served in get order.
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: deque = deque()
        self._getters: deque = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
