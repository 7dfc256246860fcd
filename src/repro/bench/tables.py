"""Fixed-width result tables (what the benchmark files print)."""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

__all__ = ["format_table", "rows_to_json"]


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(title: str, columns: Sequence[str],
                 rows: List[Dict]) -> str:
    """Render rows as a fixed-width table with a title rule."""
    rendered = [[_format_cell(row.get(col, "")) for col in columns]
                for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) if rendered
        else len(col)
        for i, col in enumerate(columns)
    ]
    lines = [title, "=" * len(title)]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) if _is_numeric(cell)
                               else cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def rows_to_json(title: str, rows: List[Dict],
                 work: Optional[Dict] = None) -> str:
    """Deterministic JSON for an experiment's result rows.

    The structure mirrors what :func:`format_table` prints — a title plus
    the row dicts verbatim — so scripted consumers (``--json`` mode, the
    experiments-report generator) parse instead of scraping the table.
    ``work`` (:meth:`repro.perf.Profiler.work`: the exact counts of what
    the simulator did to produce the rows) is the third key of a golden
    document; a run made outside the counting hooks has none.
    """
    document = {"title": title, "rows": rows}
    if work is not None:
        document["work"] = work
    return json.dumps(document, indent=2, sort_keys=True)


def _is_numeric(cell: str) -> bool:
    stripped = cell.replace(",", "").replace(".", "").replace("-", "")
    stripped = stripped.replace("%", "").replace("x", "")
    return stripped.isdigit()
