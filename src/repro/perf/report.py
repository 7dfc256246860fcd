"""Render one profiled run for humans: ``python -m repro profile``.

Two instruments feed :func:`render_profile`.  The *timer* is a
``cProfile.Profile(builtins=False)`` the run was made under: the
interpreter times every Python function itself, a generator resume by
resume, and folds C calls into the function that made them, so every
nanosecond lands on a line of this repo or of the standard library.  The
*counts* are a :class:`~repro.perf.profiler.Profiler`: events dispatched
and instructions retired, exact on any box.

A function's subsystem is where its file sits: the package directory
under ``repro/`` (``sim``, ``ebpf``, ``kernel``, ...: the names
``bench_e2e`` prints as ``<layer>.host_self_pct``), ``ebpf`` for the
block tier's generated ``<bpf:NAME>`` code, ``repro`` for a module
directly under ``repro/`` and ``python`` for everything else.

Imports from ``repro.bench`` happen inside functions: this module is
pulled in via ``repro.perf`` by ``sim/engine.py``, which must not drag
the whole bench package (and its kernel/device imports) into every
engine import.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro.perf.profiler import Profiler

__all__ = ["function_totals", "render_profile", "subsystem_totals"]

SiteKey = Tuple[str, str]  # (subsystem, "file.function")


def _site_from_code(code) -> SiteKey:
    """(subsystem, site-label) for a code object, from its file path."""
    filename = code.co_filename
    if filename.startswith("<bpf:"):
        return ("ebpf", f"{filename[1:-1]}.{code.co_name}")
    parts = os.path.normpath(filename).split(os.sep)
    subsystem = "python"
    if "repro" in parts[:-1]:
        # Rightmost "repro" component: .../src/repro/<package>/module.py
        index = len(parts) - 1 - parts[::-1].index("repro")
        subsystem = parts[index + 1] if index + 2 < len(parts) else "repro"
    stem = os.path.splitext(parts[-1])[0]
    name = getattr(code, "co_qualname", None) or code.co_name
    return (subsystem, f"{stem}.{name}")


def function_totals(timer: Any) -> Dict[SiteKey, List[float]]:
    """``(subsystem, site) -> [calls, self_s, cum_s]`` from the timer.

    ``timer`` is anything with cProfile's ``getstats()``.  A generator's
    ``calls`` are its resumes.  Code objects that share a label (two
    lambdas of one function) share a row.
    """
    totals: Dict[SiteKey, List[float]] = {}
    for entry in timer.getstats():
        code = entry.code
        if isinstance(code, str):  # a C function: the timer kept builtins
            key = ("python", code)
        else:
            key = _site_from_code(code)
        stat = totals.setdefault(key, [0, 0.0, 0.0])
        stat[0] += entry.callcount
        stat[1] += entry.inlinetime
        stat[2] += entry.totaltime
    return totals


def subsystem_totals(
        functions: Dict[SiteKey, List[float]]) -> Dict[str, Dict[str, float]]:
    """:func:`function_totals` folded per subsystem: ``{"self_s", "calls"}``.

    Self times partition the run, so they sum to the timed wall.  There
    is no cumulative column: a subsystem calls into itself through
    others, and the timer keeps no stacks to untangle that with.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for (subsystem, _site), (calls, self_s, _cum) in functions.items():
        entry = totals.setdefault(subsystem, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += self_s
        entry["calls"] += calls
    return totals


def _fmt_ms(seconds: float) -> float:
    return round(seconds * 1e3, 3)


def render_profile(counts: Profiler, timer: Any, top: int = 15,
                   wall_s: Optional[float] = None) -> str:
    """The full hotspot report as printable text.

    ``wall_s``, the wall clock measured around the run, adds the share
    of it the timer attributed to the summary.
    """
    from repro.bench.tables import format_table

    functions = function_totals(timer)
    timed_s = sum(stat[1] for stat in functions.values())
    total = timed_s or 1.0
    sections: List[str] = []

    totals = subsystem_totals(functions)
    sub_rows = []
    for subsystem in sorted(totals, key=lambda s: totals[s]["self_s"],
                            reverse=True):
        entry = totals[subsystem]
        sub_rows.append({
            "subsystem": subsystem,
            "self_ms": _fmt_ms(entry["self_s"]),
            "self_pct": round(100.0 * entry["self_s"] / total, 1),
            "calls": entry["calls"],
        })
    sections.append(format_table(
        "Wall-clock by subsystem (self time)",
        ["subsystem", "self_ms", "self_pct", "calls"],
        sub_rows,
    ))

    site_rows = []
    ranked = sorted(functions.items(),
                    key=lambda item: item[1][1], reverse=True)
    for (subsystem, site), (calls, self_s, cum_s) in ranked[:top]:
        site_rows.append({
            "function": site,
            "subsystem": subsystem,
            "calls": calls,
            "self_ms": _fmt_ms(self_s),
            "self_pct": round(100.0 * self_s / total, 1),
            "cum_ms": _fmt_ms(cum_s),
        })
    sections.append(format_table(
        f"Hottest functions (top {min(top, len(ranked))} of {len(ranked)})",
        ["function", "subsystem", "calls", "self_ms", "self_pct", "cum_ms"],
        site_rows,
    ))

    if counts.programs:
        prog_rows = []
        for (name, mode), (runs, insns) in sorted(
                counts.programs.items(),
                key=lambda item: item[1][1], reverse=True):
            prog_rows.append({
                "program": name,
                "mode": mode,
                "runs": runs,
                "insns": insns,
            })
        sections.append(format_table(
            "eBPF programs (instructions retired)",
            ["program", "mode", "runs", "insns"],
            prog_rows,
        ))

    timed = f"timed wall        : {timed_s * 1e3:.3f} ms"
    if wall_s:
        timed += (f"  ({100.0 * timed_s / wall_s:.1f} % of the"
                  f" {wall_s * 1e3:.3f} ms measured around the run)")
    summary = [
        "",
        f"events dispatched : {counts.events_dispatched:,}"
        f"  (heap depth avg {counts.heap_depth_avg():.1f},"
        f" max {counts.heap_max})",
        f"vm instructions   : {counts.instructions_retired:,}",
        timed,
    ]
    if counts.events:
        top_events = sorted(counts.events.items(),
                            key=lambda item: item[1], reverse=True)[:6]
        summary.append("top event types   : " + ", ".join(
            f"{name}={count:,}" for name, count in top_events))
    sections.append("\n".join(summary))
    return "\n\n".join(sections)
