"""Exact counts of what the simulator did, from two cheap hooks.

The *simulated* stack already has the obs bus (`repro.obs`); this module
counts the simulator's own work: events dispatched by type, event-heap
depth, eBPF program runs and retired instructions.  The numbers are a
function of the seed alone, so they are equal on any box and any Python;
``bench_e2e`` reads them through :func:`profiling`.  The contract is the
bus's contract, off by default and one attribute check when off:

* :class:`~repro.sim.engine.Simulator` captures the process-default
  profiler at construction (exactly like ``Kernel`` and the default
  bus) and guards its dispatch hook with ``if profiler.enabled:``.
* :meth:`repro.ebpf.vm.Vm.run` does the same per program run.

Nothing here reads the wall clock.  Where the *time* went is the
interpreter's question: ``python -m repro profile`` runs the experiment
under the standard library's ``cProfile`` and :mod:`repro.perf.report`
groups what it measured by function and by package.

An enabled profiler only ever *observes*: it never schedules events,
touches simulated time, or perturbs callback order, so profiled runs
produce byte-identical simulation results (tested in
``tests/test_perf.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "NULL_PROFILER",
    "Profiler",
    "get_default_profiler",
    "profiling",
    "set_default_profiler",
]


class Profiler:
    """Accumulates the engine's and the VM's counts.

    All state is plain dicts keyed by small tuples so recording is a few
    dict operations per hook.  ``events`` maps an event class name to
    the number dispatched; ``programs`` maps ``(program, mode)`` to
    ``[runs, instructions]``.
    """

    __slots__ = ("enabled", "events", "steps", "heap_sum", "heap_max",
                 "programs")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: Dict[str, int] = {}
        self.steps = 0
        self.heap_sum = 0
        self.heap_max = 0
        self.programs: Dict[Tuple[str, str], List[int]] = {}

    # -- engine hook -------------------------------------------------------

    def on_step(self, event: Any, heap_depth: int) -> None:
        """Called by the engine before it dispatches ``event``."""
        self.steps += 1
        self.heap_sum += heap_depth
        if heap_depth > self.heap_max:
            self.heap_max = heap_depth
        name = type(event).__name__
        self.events[name] = self.events.get(name, 0) + 1

    # -- VM hook -----------------------------------------------------------

    def on_program(self, name: str, mode: str, instructions: int) -> None:
        """One program run that returned: the instructions it retired."""
        key = (name, mode)
        stat = self.programs.get(key)
        if stat is None:
            stat = self.programs[key] = [0, 0]
        stat[0] += 1
        stat[1] += instructions

    # -- queries -----------------------------------------------------------

    @property
    def events_dispatched(self) -> int:
        return sum(self.events.values())

    @property
    def instructions_retired(self) -> int:
        return sum(stat[1] for stat in self.programs.values())

    def heap_depth_avg(self) -> float:
        return self.heap_sum / self.steps if self.steps else 0.0

    def work(self) -> Dict[str, Any]:
        """The exact counts as the ``work`` block of a golden document.

        Integers only (no mean, no clock), so the block is the same bytes
        on any box and any Python; ``programs`` is keyed ``name/tier``.
        """
        return {
            "events": dict(self.events),
            "heap_max": self.heap_max,
            "programs": {f"{name}/{mode}": list(stat)
                         for (name, mode), stat in self.programs.items()},
        }


#: Permanently disabled profiler: the process default unless overridden.
NULL_PROFILER = Profiler(enabled=False)

_default_profiler: Profiler = NULL_PROFILER


def get_default_profiler() -> Profiler:
    """The process-wide default profiler (NULL_PROFILER unless set)."""
    return _default_profiler


def set_default_profiler(profiler: Profiler) -> Profiler:
    """Install ``profiler`` as the default; returns the previous one."""
    global _default_profiler
    previous = _default_profiler
    _default_profiler = profiler
    return previous


@contextmanager
def profiling(profiler: Optional[Profiler] = None):
    """Install an enabled profiler for the duration of a ``with`` block.

    Simulators and VMs constructed inside the block pick it up, the same
    way Kernels pick up the default obs bus::

        with profiling() as counts:
            fig3c_latency(depths=(2,), operations=10)
        print(counts.events_dispatched, counts.instructions_retired)
    """
    profiler = profiler if profiler is not None else Profiler()
    previous = set_default_profiler(profiler)
    try:
        yield profiler
    finally:
        set_default_profiler(previous)
