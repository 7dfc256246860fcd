"""Unit tests for resources, CPU sets, and stores."""

import pytest

from repro.errors import SimulationError
from repro.perf import profiling
from repro.sim import CpuSet, Resource, Simulator, Store
from repro.sim.resources import Charge


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    completion_times = []

    def worker(sim):
        yield from res.execute(100)
        completion_times.append(sim.now)

    for _ in range(4):
        sim.spawn(worker(sim))
    sim.run()
    # Two run in parallel, then the next two.
    assert completion_times == [100, 100, 200, 200]


def test_resource_priority_orders_waiters():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder(sim):
        yield from res.execute(50)

    def worker(sim, tag, priority):
        yield sim.timeout(1)  # let the holder grab the slot first
        yield from res.execute(10, priority=priority)
        order.append(tag)

    sim.spawn(holder(sim))
    sim.spawn(worker(sim, "low", priority=10))
    sim.spawn(worker(sim, "high", priority=0))
    sim.run()
    assert order == ["high", "low"]


def test_resource_fifo_within_priority():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder(sim):
        yield from res.execute(50)

    def worker(sim, tag):
        yield sim.timeout(1)
        yield from res.execute(10, priority=5)
        order.append(tag)

    sim.spawn(holder(sim))
    for tag in ["a", "b", "c"]:
        sim.spawn(worker(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_release_ungranted_request_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.request()
    second = res.request()  # queued, not granted
    sim.run()
    assert first.granted
    with pytest.raises(SimulationError):
        res.release(second)


def test_zero_capacity_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_busy_time_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=2)

    def worker(sim, cost):
        yield from res.execute(cost)

    sim.spawn(worker(sim, 100))
    sim.spawn(worker(sim, 300))
    sim.run()
    assert res.busy_time() == 400
    assert sim.now == 300


def test_cpuset_utilisation():
    sim = Simulator()
    cpu = CpuSet(sim, cores=2)

    def worker(sim):
        yield from cpu.run_thread(100)

    sim.spawn(worker(sim))
    sim.run()
    assert sim.now == 100
    assert cpu.utilisation() == pytest.approx(0.5)


def test_cpuset_irq_preempts_queued_threads():
    sim = Simulator()
    cpu = CpuSet(sim, cores=1)
    order = []

    def thread(sim, tag):
        yield sim.timeout(1)
        yield from cpu.run_thread(10)
        order.append(tag)

    def irq(sim):
        yield sim.timeout(2)
        yield from cpu.run_irq(1)
        order.append("irq")

    def holder(sim):
        yield from cpu.run_thread(20)

    sim.spawn(holder(sim))
    sim.spawn(thread(sim, "t1"))
    sim.spawn(irq(sim))
    sim.run()
    assert order[0] == "irq"


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    received = []

    def consumer(sim):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    def producer(sim):
        for item in [1, 2, 3]:
            yield sim.timeout(10)
            store.put(item)

    sim.spawn(consumer(sim))
    sim.spawn(producer(sim))
    sim.run()
    assert received == [1, 2, 3]


def test_store_get_before_put_blocks():
    sim = Simulator()
    store = Store(sim)

    def consumer(sim):
        item = yield store.get()
        return item, sim.now

    def producer(sim):
        yield sim.timeout(500)
        store.put("late")

    proc = sim.spawn(consumer(sim))
    sim.spawn(producer(sim))
    sim.run()
    assert proc.value == ("late", 500)


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put("x")
    assert len(store) == 1
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_store_multiple_waiters_served_in_order():
    sim = Simulator()
    store = Store(sim)
    received = []

    def consumer(sim, tag):
        item = yield store.get()
        received.append((tag, item))

    sim.spawn(consumer(sim, "first"))
    sim.spawn(consumer(sim, "second"))

    def producer(sim):
        yield sim.timeout(1)
        store.put("a")
        store.put("b")

    sim.spawn(producer(sim))
    sim.run()
    assert received == [("first", "a"), ("second", "b")]


# -- one event per charge ------------------------------------------------------


def _pinned_schedule():
    """Twelve processes contending for a two-slot resource and one core:
    mixed priorities, equal costs that tie, zero and negative costs, an
    explicit request()/release() holder and plain timeouts landing on the
    same instants."""
    sim = Simulator()
    res = Resource(sim, capacity=2, name="pair")
    cpu = CpuSet(sim, cores=1)
    log = []

    def charger(tag, start, cost, priority):
        if start:
            yield sim.timeout(start)
        yield from res.execute(cost, priority=priority)
        log.append((sim.now, tag))
        yield from cpu.run_thread(cost)
        log.append((sim.now, tag + "+cpu"))

    def irq(tag, start, cost):
        yield sim.timeout(start)
        yield from cpu.run_irq(cost)
        log.append((sim.now, tag))

    def holder(tag, start, hold):
        yield sim.timeout(start)
        req = res.request(priority=5)
        yield req
        log.append((sim.now, tag + ":granted"))
        yield sim.timeout(hold)
        yield from cpu.run_thread(0)
        res.release(req)
        log.append((sim.now, tag + ":released"))

    def sleeper(tag, delay):
        yield sim.timeout(delay)
        log.append((sim.now, tag))

    sim.spawn(charger("a", 0, 100, 10))
    sim.spawn(charger("b", 0, 100, 10))
    sim.spawn(charger("c", 0, 100, 0))
    sim.spawn(charger("d", 50, 50, 10))
    sim.spawn(charger("z", 100, 0, 10))
    sim.spawn(charger("n", 100, -5, 0))
    sim.spawn(holder("h", 100, 100))
    sim.spawn(irq("i1", 150, 50))
    sim.spawn(irq("i2", 200, 0))
    sim.spawn(sleeper("s100", 100))
    sim.spawn(sleeper("s200", 200))
    sim.spawn(sleeper("s300", 300))
    sim.run()
    return log, sim.now, res.busy_time(), cpu.busy_time()


#: Recorded by running `_pinned_schedule` on the engine as it was before a
#: charge became one event (a Request, a Timeout and two resumes per
#: charge): the dispatch order of a charge is part of the contract.
_PINNED = (
    [(100, "s100"), (100, "a"), (100, "b"), (100, "n"), (100, "h:granted"),
     (200, "s200"), (200, "c"), (200, "a+cpu"),
     (250, "d"), (250, "i1"), (250, "z"), (250, "i2"),
     (300, "s300"),
     (350, "b+cpu"), (350, "n+cpu"),
     (450, "c+cpu"), (450, "h:released"),
     (500, "d+cpu"), (500, "z+cpu")],
    500, 700, 400)


def test_charge_schedule_is_pinned():
    assert _pinned_schedule() == _PINNED


def test_charge_schedule_is_pinned_under_the_profiler():
    with profiling():
        assert _pinned_schedule() == _PINNED


class _CountingGenerator:
    """A generator proxy that counts how often the engine resumes it."""

    def __init__(self, generator):
        self.generator = generator
        self.sends = 0

    def send(self, value):
        self.sends += 1
        return self.generator.send(value)

    def throw(self, exc):
        return self.generator.throw(exc)


def test_charge_is_one_event_dispatched_twice_and_one_resume():
    charges = 7

    with profiling() as prof:
        sim = Simulator()
        cpu = CpuSet(sim, cores=1)

        def worker():
            for _ in range(charges):
                yield from cpu.run_thread(10)

        counted = _CountingGenerator(worker())
        sim.spawn(counted)
        sim.run()
    assert sim.now == 10 * charges
    # Grant and expiry of each charge; the only other events are the
    # process's starter and its own completion.
    assert prof.events == {"Charge": 2 * charges, "Event": 1, "Process": 1}
    # One resume per charge, plus the one that starts the process.
    assert counted.sends == charges + 1


def test_charge_cost_is_coerced_like_a_timeout_delay():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def proc():
        yield from res.execute(10.9)
        yield from res.execute(True)
        return sim.now

    assert sim.run_process(proc()) == 11  # int(10.9) + int(True)
    assert isinstance(sim.now, int)
    assert res.busy_time() == 11
    with pytest.raises(SimulationError, match="non-numeric charge cost"):
        next(res.execute("soon"))
    assert res.in_use == 0 and res.queued == 0


def test_zero_and_negative_cost_charges_take_no_time_but_wait_their_turn():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def holder():
        yield from res.execute(50)
        log.append((sim.now, "holder"))

    def free(tag, cost, priority):
        yield sim.timeout(1)
        yield from res.execute(cost, priority=priority)
        log.append((sim.now, tag))

    sim.spawn(holder())
    sim.spawn(free("zero", 0, 5))
    sim.spawn(free("negative", -3, 5))
    sim.spawn(free("urgent", 7, 0))
    sim.run()
    assert log == [(50, "holder"), (57, "urgent"), (57, "zero"),
                   (57, "negative")]
    assert res.busy_time() == 57
    assert res.in_use == 0


def test_charge_is_pending_while_held_and_releases_exactly_once():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    charge = next(res.execute(100))
    assert isinstance(charge, Charge)
    assert charge.granted and not charge.triggered
    sim.run(until=50)  # granted, holding
    assert charge.granted and not charge.triggered
    assert res.in_use == 1
    with pytest.raises(SimulationError, match="before it triggered"):
        charge.value
    sim.run()
    assert sim.now == 100
    assert charge.triggered and charge.value is None
    assert not charge.granted and res.in_use == 0
    with pytest.raises(SimulationError, match="ungranted"):
        res.release(charge)
    assert res.in_use == 0
    assert res.busy_time() == 100


def test_charge_is_slotted_and_freed_by_reference_counting_alone():
    import gc
    import weakref

    sim = Simulator()
    res = Resource(sim, capacity=1)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        charge = next(res.execute(5))
        assert not hasattr(charge, "__dict__")
        assert not hasattr(res.request(), "__dict__")
        ref = weakref.ref(charge)
        del charge
        assert ref() is not None  # queued in the engine
        sim.run()
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
