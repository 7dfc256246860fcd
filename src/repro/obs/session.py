"""One-stop observability session for experiments and the CLI.

``ObsSession`` bundles an enabled :class:`~repro.obs.bus.TraceBus`, a
:class:`~repro.obs.metrics.MetricsRegistry` with the standard
subscribers attached, a :class:`~repro.obs.spans.SpanCollector` (span
trees and the layer ledger), and an optional JSONL recorder.  Used as a
context manager it installs its bus as the process default, so
experiment code that builds Kernels without an explicit bus is observed
transparently::

    with ObsSession(record_jsonl=True) as obs:
        fig3_throughput(quick=True)
    print(obs.render_report())
    obs.write_trace_jsonl("trace.jsonl")
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.bus import TraceBus, set_default_bus
from repro.obs.export import JsonlRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanCollector
from repro.obs.subscribers import attach_standard_metrics

__all__ = ["ObsSession"]


class ObsSession:
    """Enabled bus + registry + ledger + spans, as a context manager."""

    def __init__(self, record_jsonl: bool = False, max_roots: int = 256):
        self.bus = TraceBus(enabled=True)
        self.registry = MetricsRegistry()
        attach_standard_metrics(self.bus, self.registry)
        self.spans = SpanCollector(self.bus, max_roots=max_roots,
                                   registry=self.registry)
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

    def render_report(self) -> str:
        """Ledger table + span-0 line + chain bypass + metrics + spans."""
        from repro.bench.tables import format_table  # local: avoid cycle

        spans = self.spans
        rows = spans.ledger_rows()
        lines = [format_table(
            "Layer ledger (mean ns per closed operation, by path)",
            list(rows[0]), rows)]
        if spans.outside:
            lines.append("")
            lines.append("outside any operation (span 0), ns: " + ", ".join(
                f"{path} {ns}" for path, ns in sorted(spans.outside.items())))
        bypass = spans.bypass_line()
        if bypass is not None:
            lines.append("")
            lines.append(bypass)
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
