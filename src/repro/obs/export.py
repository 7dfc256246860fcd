"""Deterministic JSONL export for trace events.

Every line is ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
over fields that are pure functions of the simulation (simulated-time
stamps, no wall clock, no ids from ``id()``), so two runs with the same
seed produce byte-identical output — the property the acceptance test
checks.
"""

from __future__ import annotations

import json
from typing import List

from repro.obs.bus import TraceBus
from repro.obs.events import TraceEvent

__all__ = ["JsonlRecorder"]

_COMPACT = {"sort_keys": True, "separators": (",", ":")}


def _event_line(event: TraceEvent) -> str:
    record = {"ts": event.ts, "type": event.etype}
    record.update(event.fields)
    return json.dumps(record, **_COMPACT)


class JsonlRecorder:
    """Wildcard subscriber that serialises every event to JSONL lines."""

    def __init__(self, bus: TraceBus):
        self.lines: List[str] = []
        bus.subscribe(self._on_event)

    def _on_event(self, event: TraceEvent) -> None:
        self.lines.append(_event_line(event))

    def text(self) -> str:
        """The full trace as one JSONL string (trailing newline)."""
        return "".join(line + "\n" for line in self.lines)

    def write(self, path: str) -> int:
        """Write the trace to ``path``; returns the number of lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text())
        return len(self.lines)

