"""Render :class:`~repro.perf.profiler.Profiler` data for humans.

Two outputs:

* :func:`render_profile` — the ``python -m repro profile`` hotspot view:
  a per-subsystem self/cumulative wall-clock table, the top call sites,
  per-program VM stats, and per-opcode-class VM stats.
* :func:`collapsed_stacks` — Brendan Gregg "collapsed" flamegraph lines
  (``frame;frame;frame <self_ns>``), one per distinct frame stack, ready
  for ``flamegraph.pl`` or speedscope.

Imports from ``repro.bench`` happen inside functions: this module is
pulled in via ``repro.perf`` by ``sim/engine.py``, which must not drag
the whole bench package (and its kernel/device imports) into every
engine import.
"""

from __future__ import annotations

from typing import Dict, List

from repro.perf.profiler import Profiler

__all__ = ["collapsed_stacks", "render_profile", "subsystem_totals"]

#: Display order for the subsystem table.
_SUBSYSTEM_ORDER = ["engine", "vm", "kernel", "device", "net", "cluster",
                    "qos", "obs", "faults", "structures", "compact", "app"]


def subsystem_totals(profiler: Profiler) -> Dict[str, Dict[str, int]]:
    """Per-subsystem ``{"self_ns", "cum_ns", "calls"}`` attribution.

    Self time sums site self-ns.  Cumulative time is computed from the
    collapsed stacks: each stack's self-ns is credited once to every
    *distinct* subsystem appearing in it, so nested same-subsystem
    frames (kernel calling kernel) are not double-counted and the
    engine's cumulative equals total profiled time.
    """
    totals: Dict[str, Dict[str, int]] = {}
    for (subsystem, _site), (calls, self_ns, _cum) in profiler.sites.items():
        entry = totals.setdefault(
            subsystem, {"self_ns": 0, "cum_ns": 0, "calls": 0})
        entry["self_ns"] += self_ns
        entry["calls"] += calls
    for stack, self_ns in profiler.stacks.items():
        for subsystem in set(key[0] for key in stack):
            entry = totals.setdefault(
                subsystem, {"self_ns": 0, "cum_ns": 0, "calls": 0})
            entry["cum_ns"] += self_ns
    return totals


def _fmt_ms(ns: int) -> float:
    return round(ns / 1e6, 3)


def render_profile(profiler: Profiler, top: int = 15) -> str:
    """The full hotspot report as printable text."""
    from repro.bench.tables import format_table

    total = profiler.total_ns or 1
    sections: List[str] = []

    totals = subsystem_totals(profiler)
    order = {name: index for index, name in enumerate(_SUBSYSTEM_ORDER)}
    sub_rows = []
    for subsystem in sorted(totals,
                            key=lambda s: (order.get(s, 99), s)):
        entry = totals[subsystem]
        sub_rows.append({
            "subsystem": subsystem,
            "self_ms": _fmt_ms(entry["self_ns"]),
            "self_pct": round(100.0 * entry["self_ns"] / total, 1),
            "cum_ms": _fmt_ms(entry["cum_ns"]),
            "cum_pct": round(100.0 * entry["cum_ns"] / total, 1),
            "calls": entry["calls"],
        })
    sections.append(format_table(
        "Wall-clock by subsystem (self/cumulative)",
        ["subsystem", "self_ms", "self_pct", "cum_ms", "cum_pct", "calls"],
        sub_rows,
    ))

    site_rows = []
    ranked = sorted(profiler.sites.items(),
                    key=lambda item: item[1][1], reverse=True)
    for (subsystem, site), (calls, self_ns, cum_ns) in ranked[:top]:
        site_rows.append({
            "site": site,
            "subsystem": subsystem,
            "calls": calls,
            "self_ms": _fmt_ms(self_ns),
            "self_pct": round(100.0 * self_ns / total, 1),
            "cum_ms": _fmt_ms(cum_ns),
        })
    sections.append(format_table(
        f"Hottest call sites (top {min(top, len(ranked))} of {len(ranked)})",
        ["site", "subsystem", "calls", "self_ms", "self_pct", "cum_ms"],
        site_rows,
    ))

    if profiler.programs:
        prog_rows = []
        for (name, mode), (runs, insns, wall_ns) in sorted(
                profiler.programs.items(),
                key=lambda item: item[1][2], reverse=True):
            prog_rows.append({
                "program": name,
                "mode": mode,
                "runs": runs,
                "insns": insns,
                "wall_ms": _fmt_ms(wall_ns),
                "ns_per_insn": round(wall_ns / insns, 1) if insns else 0.0,
            })
        sections.append(format_table(
            "eBPF programs (instructions retired)",
            ["program", "mode", "runs", "insns", "wall_ms", "ns_per_insn"],
            prog_rows,
        ))

    if profiler.opcodes:
        op_total = sum(stat[1] for stat in profiler.opcodes.values()) or 1
        op_rows = []
        for opclass, (opcount, wall_ns) in sorted(
                profiler.opcodes.items(),
                key=lambda item: item[1][1], reverse=True):
            op_rows.append({
                "class": opclass,
                "count": opcount,
                "wall_ms": _fmt_ms(wall_ns),
                "pct": round(100.0 * wall_ns / op_total, 1),
            })
        sections.append(format_table(
            "eBPF opcode classes (interpreter wall time)",
            ["class", "count", "wall_ms", "pct"],
            op_rows,
        ))

    summary = [
        "",
        f"events dispatched : {profiler.events_dispatched:,}"
        f"  (heap depth avg {profiler.heap_depth_avg():.1f},"
        f" max {profiler.heap_max})",
        f"vm instructions   : {profiler.instructions_retired:,}",
        f"profiled wall     : {profiler.total_ns / 1e6:.3f} ms",
    ]
    if profiler.events:
        top_events = sorted(profiler.events.items(),
                            key=lambda item: item[1], reverse=True)[:6]
        summary.append("top event types   : " + ", ".join(
            f"{name}={count:,}" for name, count in top_events))
    sections.append("\n".join(summary))
    return "\n\n".join(sections)


def collapsed_stacks(profiler: Profiler) -> str:
    """Flamegraph "collapsed" format: ``frame;frame <self_ns>`` lines.

    Frames render as ``subsystem:site``; line order is deterministic
    (sorted by stack) so output diffs cleanly between runs.
    """
    lines = []
    for stack in sorted(profiler.stacks):
        self_ns = profiler.stacks[stack]
        if self_ns <= 0:
            continue
        frames = ";".join(
            f"{subsystem}:{site}" for subsystem, site in stack)
        lines.append(f"{frames} {self_ns}")
    return "\n".join(lines) + ("\n" if lines else "")
