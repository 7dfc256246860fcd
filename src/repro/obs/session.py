"""One-stop observability session for experiments and the CLI.

``ObsSession`` bundles an enabled :class:`~repro.obs.bus.TraceBus`, a
:class:`~repro.obs.metrics.MetricsRegistry` with the standard
subscribers attached, a :class:`~repro.obs.spans.SpanCollector`, and an
optional JSONL recorder.  Used as a context manager it installs its bus
as the process default, so experiment code that builds Kernels without
an explicit bus is observed transparently::

    with ObsSession(record_jsonl=True) as obs:
        fig3_throughput(quick=True)
    print(obs.render_report())
    obs.write_trace_jsonl("trace.jsonl")
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.bus import TraceBus, set_default_bus
from repro.obs.export import JsonlRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanCollector
from repro.obs.subscribers import (
    LayerAttribution,
    attach_standard_metrics,
)

__all__ = ["ObsSession"]


class ObsSession:
    """Enabled bus + registry + attribution + spans, as a context manager."""

    def __init__(self, record_jsonl: bool = False, max_roots: int = 256):
        self.bus = TraceBus(enabled=True)
        self.registry = MetricsRegistry()
        self.attribution = LayerAttribution(self.bus, self.registry)
        attach_standard_metrics(self.bus, self.registry)
        self.spans = SpanCollector(self.bus, max_roots=max_roots)
        self.recorder = JsonlRecorder(self.bus) if record_jsonl else None
        self._previous_bus: Optional[TraceBus] = None

    def __enter__(self) -> "ObsSession":
        self._previous_bus = set_default_bus(self.bus)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._previous_bus is not None:
            set_default_bus(self._previous_bus)
            self._previous_bus = None

    # -- exports -----------------------------------------------------------

    def write_trace_jsonl(self, path: str) -> int:
        if self.recorder is None:
            raise ValueError("session was created with record_jsonl=False")
        return self.recorder.write(path)

    # -- reporting ---------------------------------------------------------

    def render_report(self, cost_model=None,
                      device_ns: Optional[int] = None) -> str:
        """Attribution table + chain-bypass summary + counters + spans."""
        from repro.bench.tables import format_table  # local: avoid cycle

        lines: List[str] = []
        rows = self.attribution.table1_comparison(cost_model, device_ns)
        table_rows = []
        for row in rows:
            table_rows.append({
                "layer": row["layer"],
                "table1_ns": ("-" if row["table1_ns"] is None
                              else str(row["table1_ns"])),
                "normal_per_io": f"{row['normal_per_io']:.0f}",
                "delta": ("-" if row["delta"] is None
                          else f"{row['delta']:+.0f}"),
                "chain_per_io": f"{row['chain_per_io']:.0f}",
            })
        lines.append(format_table(
            "Per-layer CPU-ns attribution (per completed I/O)",
            ("layer", "table1_ns", "normal_per_io", "delta", "chain_per_io"),
            table_rows,
        ))
        summary = self.attribution.bypass_summary()
        if summary["chain_ios"]:
            # A layer is "skipped" when recycled hops pay (much) less for
            # it than a normal I/O does — it is charged once per chain at
            # setup, not once per hop.
            skipped = [entry["layer"] for entry in summary["layers"]
                       if entry["normal_per_io"] == 0
                       or entry["chain_per_hop"]
                       < 0.5 * entry["normal_per_io"]]
            lines.append("")
            lines.append(
                f"chain bypass: {summary['chain_ios']} chained I/Os, "
                f"{summary['total_hops']} hops "
                f"({summary['recycled_hops']} recycled in IRQ context); "
                f"recycled hops skip: {', '.join(skipped)}")
        lines.append("")
        lines.append("-- metrics --")
        lines.append(self.registry.render())
        span_text = self._exemplar_spans()
        if span_text:
            lines.append("")
            lines.append("-- exemplar span trees --")
            lines.append(span_text)
        return "\n".join(lines)

    def _exemplar_spans(self) -> str:
        """One chained root (preferring >=2 hops) and one baseline root."""
        chosen = []
        chains = self.spans.find_roots("read_chain")
        deep = [s for s in chains if len(s.children) >= 2]
        if deep:
            chosen.append(deep[0])
        elif chains:
            chosen.append(chains[0])
        normals = self.spans.find_roots("sys_pread")
        if normals:
            chosen.append(normals[0])
        parts = []
        for root in chosen:
            parts.extend(self.spans.render_span(root))
        return "\n".join(parts)
