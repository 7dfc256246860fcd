"""Self-profiling for the simulator (`wall-clock`, not simulated ns).

`repro.obs` observes the *simulated* stack; `repro.perf` observes the
simulator.  Two pieces:

* :mod:`repro.perf.profiler` — two counting hooks (events dispatched by
  type and heap depth in the sim engine, instructions retired per eBPF
  program run: exact, no clock); off by default, one check when off.
  :meth:`Profiler.work` is the ``work`` block every golden document in
  ``benchmarks/golden/`` pins.
* :mod:`repro.perf.report` — ``python -m repro profile``'s tables: wall
  time by function and by package as ``cProfile`` measured it, + counts.

This package is imported by ``sim/engine.py``, so it must stay
import-light: nothing here may pull in ``repro.bench``, ``repro.kernel``
or anything that imports the engine at module level.
"""

from repro.perf.profiler import (
    NULL_PROFILER,
    Profiler,
    get_default_profiler,
    profiling,
    set_default_profiler,
)
from repro.perf.report import (function_totals, module_totals, render_profile,
                               subsystem_totals)

__all__ = [
    "NULL_PROFILER",
    "Profiler",
    "function_totals",
    "get_default_profiler",
    "module_totals",
    "profiling",
    "render_profile",
    "set_default_profiler",
    "subsystem_totals",
]
