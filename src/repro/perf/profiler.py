"""Low-overhead wall-clock profiler for the simulator's own hot paths.

The *simulated* stack already has the obs bus (`repro.obs`); this module
points the same lens at the simulator itself: where does **wall-clock**
time go while the discrete-event engine dispatches callbacks and the
eBPF VM retires instructions?  The contract is the bus's contract — off
by default, one attribute check when off:

* :class:`~repro.sim.engine.Simulator` captures the process-default
  profiler at construction (exactly like ``Kernel`` and the default
  bus) and guards its dispatch hook with ``if profiler.enabled:``.
* :meth:`repro.ebpf.vm.Vm.run` does the same per program run.

Attribution is a genuine self/cumulative profile.  The instrumented
call sites maintain a frame stack — engine dispatch → resumed-process
site → VM program — so a kernel callback's *self* time excludes the VM
programs it executed, and the engine's self time is pure event-loop
overhead.  Sites are derived from code objects (file stem + function
name), subsystems from the ``repro.<package>`` the file lives in, so
the hotspot table groups by engine / vm / kernel / device / net / obs.

Nothing here reads the wall clock unless the profiler is enabled, and
an enabled profiler only ever *observes* — it never schedules events,
touches simulated time, or perturbs callback order, so profiled runs
produce byte-identical simulation results (tested in
``tests/test_perf.py``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "NULL_PROFILER",
    "Profiler",
    "get_default_profiler",
    "profiling",
    "set_default_profiler",
]

#: ``repro.<package>`` -> hotspot-table subsystem label.  ``core`` is the
#: in-kernel BPF machinery, so it is charged to the kernel; the on-disk
#: structures and the compaction engine get their own buckets (they run
#: on both sides of the boundary); workloads and the bench driver are
#: the workload itself; the self-profiler is instrumentation, like the
#: trace bus.  Every package directory under ``src/repro/`` has a row
#: (a test checks it), so a new package cannot fall into ``app`` unseen.
_PACKAGE_SUBSYSTEM = {
    "sim": "engine",
    "ebpf": "vm",
    "kernel": "kernel",
    "core": "kernel",
    "device": "device",
    "net": "net",
    "cluster": "cluster",
    "qos": "qos",
    "obs": "obs",
    "perf": "obs",
    "faults": "faults",
    "structures": "structures",
    "compact": "compact",
    "workloads": "app",
    "bench": "app",
}

SiteKey = Tuple[str, str]  # (subsystem, "file.function")


def _site_from_code(code) -> SiteKey:
    """(subsystem, site-label) for a code object, from its file path."""
    filename = code.co_filename
    parts = os.path.normpath(filename).split(os.sep)
    subsystem = "app"
    try:
        # Rightmost "repro" component: .../src/repro/<package>/module.py
        index = len(parts) - 1 - parts[::-1].index("repro")
        if index + 1 < len(parts):
            package = parts[index + 1]
            if package.endswith(".py"):  # repro/cli.py and friends
                subsystem = "app"
            else:
                subsystem = _PACKAGE_SUBSYSTEM.get(package, "app")
    except ValueError:
        subsystem = "app"
    stem = os.path.splitext(os.path.basename(filename))[0]
    name = getattr(code, "co_qualname", None) or code.co_name
    return (subsystem, f"{stem}.{name}")


class Profiler:
    """Accumulates wall-clock attribution from the engine and VM hooks.

    All state is plain dicts keyed by small tuples so recording is a few
    dict operations per hook.  ``sites`` maps ``(subsystem, site)`` to
    ``[calls, self_ns, cum_ns]``; ``stacks`` maps a full frame-stack
    tuple to accumulated self-ns (the flamegraph "collapsed" data);
    ``programs`` maps ``(program, mode)`` to ``[runs, instructions,
    wall_ns]``; ``opcodes`` maps an opcode class to ``[count, wall_ns]``.
    """

    __slots__ = (
        "enabled", "sites", "stacks", "events", "steps", "heap_sum",
        "heap_max", "programs", "opcodes", "_stack", "_site_cache",
    )

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.sites: Dict[SiteKey, List[int]] = {}
        self.stacks: Dict[Tuple[SiteKey, ...], int] = {}
        self.events: Dict[str, int] = {}
        self.steps = 0
        self.heap_sum = 0
        self.heap_max = 0
        self.programs: Dict[Tuple[str, str], List[int]] = {}
        self.opcodes: Dict[str, List[int]] = {}
        self._stack: List[List[Any]] = []
        self._site_cache: Dict[Any, SiteKey] = {}

    # -- frame stack -------------------------------------------------------

    def push(self, key: SiteKey) -> None:
        """Open a frame for ``key``; nest under the current frame."""
        self._stack.append([key, perf_counter_ns(), 0])

    def pop(self) -> int:
        """Close the current frame; returns its total (cumulative) ns."""
        key, start, child_ns = self._stack.pop()
        elapsed = perf_counter_ns() - start
        self_ns = elapsed - child_ns
        if self_ns < 0:
            self_ns = 0
        stat = self.sites.get(key)
        if stat is None:
            stat = self.sites[key] = [0, 0, 0]
        stat[0] += 1
        stat[1] += self_ns
        stat[2] += elapsed
        stack_key = tuple(frame[0] for frame in self._stack) + (key,)
        self.stacks[stack_key] = self.stacks.get(stack_key, 0) + self_ns
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    # -- engine hooks ------------------------------------------------------

    def on_step(self, event: Any, heap_depth: int) -> None:
        """Called by ``Simulator.step`` before dispatching ``event``."""
        self.steps += 1
        self.heap_sum += heap_depth
        if heap_depth > self.heap_max:
            self.heap_max = heap_depth
        name = type(event).__name__
        self.events[name] = self.events.get(name, 0) + 1
        self.push(("engine", f"dispatch.{name}"))

    def end_step(self) -> None:
        self.pop()

    def site_for_callback(self, callback: Callable) -> SiteKey:
        """The attribution site for an event callback.

        For a :class:`~repro.sim.engine.Process` resume we attribute to
        the *generator being resumed* (the interesting code), not to the
        engine's ``_resume`` trampoline.  Sites are cached by code
        object, so steady-state cost is one dict hit.
        """
        owner = getattr(callback, "__self__", None)
        generator = getattr(owner, "_generator", None)
        code = getattr(generator, "gi_code", None)
        if code is None:
            func = getattr(callback, "__func__", callback)
            code = getattr(func, "__code__", None)
        if code is None:
            return ("app", type(callback).__name__)
        key = self._site_cache.get(code)
        if key is None:
            key = self._site_cache[code] = _site_from_code(code)
        return key

    # -- VM hooks ----------------------------------------------------------

    def on_program(self, name: str, mode: str, instructions: int,
                   wall_ns: int) -> None:
        """One completed program run: instructions retired + wall ns."""
        key = (name, mode)
        stat = self.programs.get(key)
        if stat is None:
            stat = self.programs[key] = [0, 0, 0]
        stat[0] += 1
        stat[1] += instructions
        stat[2] += wall_ns

    def on_opcode(self, opcode_class: str, wall_ns: int) -> None:
        """One retired instruction, bucketed by opcode class."""
        stat = self.opcodes.get(opcode_class)
        if stat is None:
            stat = self.opcodes[opcode_class] = [0, 0]
        stat[0] += 1
        stat[1] += wall_ns

    # -- queries -----------------------------------------------------------

    @property
    def events_dispatched(self) -> int:
        return sum(self.events.values())

    @property
    def instructions_retired(self) -> int:
        return sum(stat[1] for stat in self.programs.values())

    @property
    def total_ns(self) -> int:
        """Total profiled wall time (sum of all frames' self time)."""
        return sum(self.stacks.values())

    def heap_depth_avg(self) -> float:
        return self.heap_sum / self.steps if self.steps else 0.0


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

        with profiling() as prof:
            fig3c_latency(depths=(2,), operations=10)
        print(render_profile(prof))
    """
    profiler = profiler if profiler is not None else Profiler()
    previous = set_default_profiler(profiler)
    try:
        yield profiler
    finally:
        set_default_profiler(previous)
