"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.errors import SimulationError
from repro.perf import profiling
from repro.sim import CpuSet, Simulator
from repro.sim.engine import AllOf, AnyOf


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(100)
        yield sim.timeout(250)
        return sim.now

    assert sim.run_process(proc(sim)) == 350
    assert sim.now == 350


def test_zero_timeout_is_allowed():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(0)
        return "ok"

    assert sim.run_process(proc(sim)) == "ok"
    assert sim.now == 0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_float_timeout_coerced_to_int_nanoseconds():
    # A float delay must not drift sim.now off integer nanoseconds —
    # even when Timeout is constructed directly, bypassing sim.timeout.
    from repro.sim.engine import Timeout

    sim = Simulator()

    def proc(sim):
        yield Timeout(sim, 10.9)
        yield sim.timeout(5.5)
        return sim.now

    assert sim.run_process(proc(sim)) == 15  # int(10.9) + int(5.5)
    assert isinstance(sim.now, int)


def test_non_numeric_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError, match="non-numeric timeout delay"):
        sim.timeout("soon")


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(10)
        order.append(tag)

    sim.spawn(proc(sim, "a"))
    sim.spawn(proc(sim, "b"))
    sim.spawn(proc(sim, "c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_propagates():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(5)
        return 42

    def parent(sim):
        result = yield sim.spawn(child(sim))
        return result + 1

    assert sim.run_process(parent(sim)) == 43


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent(sim):
        try:
            yield sim.spawn(child(sim))
        except ValueError as exc:
            return str(exc)
        return "no exception"

    assert sim.run_process(parent(sim)) == "boom"


def test_unwaited_process_crash_raises():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    sim.spawn(child(sim))
    with pytest.raises(RuntimeError):
        sim.run()


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()

    def waiter(sim):
        value = yield gate
        return value

    def opener(sim):
        yield sim.timeout(77)
        gate.succeed("open")

    proc = sim.spawn(waiter(sim))
    sim.spawn(opener(sim))
    sim.run()
    assert proc.value == "open"
    assert sim.now == 77


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_yield_non_event_rejected():
    sim = Simulator()

    def bad(sim):
        yield 123

    sim.spawn(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_stops_clock_exactly():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1000)

    sim.spawn(proc(sim))
    sim.run(until=400)
    assert sim.now == 400
    sim.run()
    assert sim.now == 1000


def test_run_until_beyond_queue_sets_clock():
    sim = Simulator()
    sim.run(until=5000)
    assert sim.now == 5000


def test_run_until_in_the_past_rejected():
    # run(until=T) with T < now used to set the clock back to T, after
    # which new timeouts were scheduled in what had been the past.
    sim = Simulator()
    sim.timeout(20)
    sim.run(until=10)
    with pytest.raises(SimulationError, match=r"until=5\b.*now=10\b"):
        sim.run(until=5)
    assert sim.now == 10

    def late(sim):
        yield sim.timeout(100)

    with pytest.raises(SimulationError, match="in the past"):
        sim.run_process(late(sim), until=9)
    assert sim.now == 10
    sim.run(until=10)  # until == now stays legal: drains what is due now
    assert sim.now == 10
    sim.run()
    assert sim.now == 110


def test_all_of_collects_values():
    sim = Simulator()

    def child(sim, delay, value):
        yield sim.timeout(delay)
        return value

    def parent(sim):
        procs = [sim.spawn(child(sim, d, v)) for d, v in [(30, "x"), (10, "y")]]
        values = yield AllOf(sim, procs)
        return values

    assert sim.run_process(parent(sim)) == ["x", "y"]
    assert sim.now == 30


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def parent(sim):
        values = yield AllOf(sim, [])
        return values

    assert sim.run_process(parent(sim)) == []


def test_any_of_returns_first():
    sim = Simulator()

    def child(sim, delay, value):
        yield sim.timeout(delay)
        return value

    def parent(sim):
        procs = [sim.spawn(child(sim, d, v)) for d, v in [(30, "slow"), (10, "fast")]]
        index, value = yield AnyOf(sim, procs)
        return index, value

    index, value = sim.run_process(parent(sim))
    assert (index, value) == (1, "fast")
    # The slow child still drains afterwards; the clock ends at its finish.
    assert sim.now == 30


def test_nested_processes_share_clock():
    sim = Simulator()

    def inner(sim):
        yield sim.timeout(10)
        return sim.now

    def outer(sim):
        yield sim.timeout(5)
        inner_done = yield sim.spawn(inner(sim))
        return inner_done, sim.now

    assert sim.run_process(outer(sim)) == (15, 15)


def test_immediate_event_resumes_without_time_passing():
    sim = Simulator()
    gate = sim.event()
    gate.succeed("early")

    def proc(sim):
        value = yield gate
        return value, sim.now

    assert sim.run_process(proc(sim)) == ("early", 0)


# -- deterministic ordering under timestamp ties ---------------------------


def _tie_workload():
    """Many processes landing on the same timestamps from mixed paths.

    Zero timeouts, equal timeouts, and pre-fired events all collide on
    the same simulated instants; the firing order must be exactly the
    scheduling order (the heap breaks ties on a monotone sequence
    number, never on callback identity).
    """
    sim = Simulator()
    order = []

    def sleeper(sim, tag, delay):
        yield sim.timeout(delay)
        order.append(tag)

    def stepper(sim, tag):
        yield sim.timeout(0)
        order.append((tag, 0))
        yield sim.timeout(10)
        order.append((tag, 10))

    gate = sim.event()
    gate.succeed(None)

    def waiter(sim, tag):
        yield gate
        order.append(tag)

    for tag in ("s1", "s2"):
        sim.spawn(stepper(sim, tag))
    sim.spawn(sleeper(sim, "a", 10))
    sim.spawn(waiter(sim, "w1"))
    sim.spawn(sleeper(sim, "b", 10))
    sim.spawn(waiter(sim, "w2"))
    sim.spawn(sleeper(sim, "c", 0))
    sim.run()
    return order


def test_timestamp_ties_fire_in_schedule_order():
    order = _tie_workload()
    # Pre-fired gates resume their waiters during the spawn pass itself
    # (no heap round trip), then the t=0 timeout ties fire in schedule
    # order, then the t=10 ties — again in the order the resumes were
    # put on the heap (a/b enqueued at first resume, s1/s2 only when
    # their t=0 step ran).
    assert order == ["w1", "w2", ("s1", 0), ("s2", 0), "c", "a", "b",
                     ("s1", 10), ("s2", 10)]


def test_tie_order_is_reproducible():
    assert _tie_workload() == _tie_workload()


def test_tie_order_identical_with_profiler_enabled():
    # The profiler's dispatch hook must preserve callback order
    # exactly — observation never perturbs ordering.
    from repro.perf import profiling

    plain = _tie_workload()
    with profiling() as prof:
        profiled = _tie_workload()
    assert profiled == plain
    assert prof.events_dispatched > 0


def test_finished_process_is_freed_by_reference_counting_alone():
    # Process caches its own wake-up callable (a bound method of itself);
    # it must drop it when the generator ends, or every finished process
    # would wait for the cyclic collector.
    import gc
    import weakref

    sim = Simulator()

    def child(sim):
        yield sim.timeout(5)
        return "done"

    def parent(sim):
        return (yield sim.spawn(child(sim)))

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        process = sim.spawn(parent(sim))
        sim.run()
        assert process.value == "done"
        ref = weakref.ref(process)
        del process
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


# -- fire-and-forget processes (Simulator.start) --------------------------------


def _background_scenario(launch):
    """Workers contending for one core and one gate, plus one background
    process begun with ``launch`` ("spawn" or "start") that finishes at an
    instant where the others are queued.  Returns the ``(now, tag)`` log
    and the profiler's event counts."""
    with profiling() as prof:
        sim = Simulator()
        cpu = CpuSet(sim, cores=1)
        gate = sim.event()
        log = []

        def worker(tag, delay):
            yield sim.timeout(delay)
            yield from cpu.run_thread(10)
            log.append((sim.now, tag))
            yield gate
            log.append((sim.now, tag + ":gate"))
            yield sim.timeout(0)
            log.append((sim.now, tag + ":after"))

        def background():
            yield sim.timeout(5)
            yield from cpu.run_irq(7)
            log.append((sim.now, "bg"))
            gate.succeed()
            return "nobody reads this"

        def watcher():
            yield sim.timeout(12)
            log.append((sim.now, "watcher"))
            yield from cpu.run_irq(0)
            log.append((sim.now, "watcher:irq"))

        sim.spawn(worker("w1", 0))
        getattr(sim, launch)(background(), "bg")
        sim.spawn(worker("w2", 0))
        sim.spawn(watcher())
        sim.spawn(worker("w3", 12))
        sim.run()
    return log, sim.now, prof.events


def test_start_keeps_every_other_process_s_trace():
    spawned_log, spawned_end, _ = _background_scenario("spawn")
    started_log, started_end, _ = _background_scenario("start")
    # The background's finish lands among the gate's wake-ups and the
    # watcher's charge, all at t=17.
    assert (17, "bg") in started_log and (17, "watcher:irq") in started_log
    assert started_log == spawned_log
    assert started_end == spawned_end


def test_start_dispatches_one_process_event_fewer_and_returns_none():
    _, _, spawned = _background_scenario("spawn")
    _, _, started = _background_scenario("start")
    assert spawned["Process"] - started["Process"] == 1
    spawned.pop("Process")
    started.pop("Process")
    assert started == spawned
    sim = Simulator()

    def proc():
        yield sim.timeout(1)

    assert sim.start(proc()) is None
    sim.run()
    assert sim.now == 1


def test_started_process_crash_propagates_out_of_run():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    sim.start(child(), "child")
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()

    with profiling() as prof:
        again = Simulator()

        def crashing():
            yield again.timeout(1)
            raise RuntimeError("again")

        again.start(crashing())
        with pytest.raises(RuntimeError, match="again"):
            again.run()
    assert again.now == 1
    assert "Process" not in prof.events


def test_finished_started_process_is_freed_by_reference_counting_alone():
    import gc
    import weakref

    class Watched(Simulator):
        """Keeps a weak reference to every process it spawns."""

        def __init__(self):
            super().__init__()
            self.refs = []

        def spawn(self, generator, name=""):
            process = super().spawn(generator, name)
            self.refs.append((weakref.ref(process), weakref.ref(generator)))
            return process

    sim = Watched()

    def child():
        yield sim.timeout(5)
        yield sim.timeout(5)
        return "done"

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        sim.start(child(), "child")
        (process, generator), = sim.refs
        assert process() is not None  # its starter is queued
        sim.run(until=7)
        assert process() is not None  # waiting on its second timeout
        sim.run()
        assert sim.now == 10
        assert process() is None and generator() is None
    finally:
        if was_enabled:
            gc.enable()


def test_events_are_slotted():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)

    family = [sim.event(), sim.timeout(1), sim.spawn(proc(sim)),
              AllOf(sim, [sim.timeout(1)]), AnyOf(sim, [sim.timeout(1)])]
    for event in family:
        assert not hasattr(event, "__dict__"), type(event).__name__
    sim.run()
