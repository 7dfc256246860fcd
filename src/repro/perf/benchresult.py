"""Uniform machine-readable benchmark results (``BENCH_<name>.json``).

Every row of the experiment table emits one of these through
``benchmarks/harness.py`` so that wall-clock numbers, the deterministic
simulation outputs, and the machine fingerprint travel together.  The
committed files under ``benchmarks/baselines/`` are the repo's perf
trajectory; ``scripts/check_bench_regression.py`` diffs fresh runs
against them.

Schema version ``repro-bench/1``::

    {
      "schema": "repro-bench/1",
      "name": "fig3a",                     # experiment-table row name
      "title": "Figure 3a — ...",
      "mode": "full" | "smoke",
      "rounds": 3,
      "wall_s": {"mean": ..., "min": ..., "max": ..., "per_round": [...]},
      "throughput": {"value": ..., "unit": "kops/s"} | null,
      "metrics": {...},                    # deterministic scalars, sorted
      "fingerprint": {"git_sha", "python", "implementation",
                      "platform", "machine"},
      "created_unix": 1710000000
    }

``wall_s`` is the only noisy field; everything in ``throughput`` /
``metrics`` is a pure function of the bench's seed and parameters, so
the regression checker compares those exactly (drift there means
*behaviour* changed, not the machine).
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "BENCH_SCHEMA",
    "BenchResult",
    "fingerprint",
    "validate_bench_json",
]

BENCH_SCHEMA = "repro-bench/1"

_MODES = ("full", "smoke")

#: required key -> type check (None means nullable-dict checked separately)
_TOP_KEYS = {
    "schema": str,
    "name": str,
    "title": str,
    "mode": str,
    "rounds": int,
    "wall_s": dict,
    "metrics": dict,
    "fingerprint": dict,
    "created_unix": (int, float),
}

_WALL_KEYS = {"mean", "min", "max", "per_round"}
_FINGERPRINT_KEYS = {"git_sha", "python", "implementation", "platform",
                     "machine"}


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def fingerprint() -> Dict[str, str]:
    """Identify the machine/interpreter a result was produced on."""
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
    }


class BenchResult:
    """One benchmark run, ready to serialise as ``BENCH_<name>.json``."""

    def __init__(
        self,
        name: str,
        title: str,
        mode: str,
        wall_rounds_s: List[float],
        throughput: Optional[Dict[str, Any]] = None,
        metrics: Optional[Dict[str, Any]] = None,
    ):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if not wall_rounds_s:
            raise ValueError("wall_rounds_s must contain at least one round")
        if throughput is not None:
            if set(throughput) != {"value", "unit"}:
                raise ValueError(
                    "throughput must be {'value': ..., 'unit': ...}"
                )
        self.name = name
        self.title = title
        self.mode = mode
        self.wall_rounds_s = [float(w) for w in wall_rounds_s]
        self.throughput = throughput
        self.metrics = dict(metrics or {})

    def to_dict(self) -> Dict[str, Any]:
        rounds = self.wall_rounds_s
        return {
            "schema": BENCH_SCHEMA,
            "name": self.name,
            "title": self.title,
            "mode": self.mode,
            "rounds": len(rounds),
            "wall_s": {
                "mean": sum(rounds) / len(rounds),
                "min": min(rounds),
                "max": max(rounds),
                "per_round": rounds,
            },
            "throughput": self.throughput,
            "metrics": self.metrics,
            "fingerprint": fingerprint(),
            "created_unix": int(time.time()),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())


def validate_bench_json(data: Any) -> List[str]:
    """Schema-check a parsed ``BENCH_*.json``; returns a list of problems.

    An empty list means the document is valid ``repro-bench/1``.  Used by
    both the regression checker (to reject corrupt baselines with exit
    code 2) and the test suite (to validate every committed baseline).
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        return [f"top level must be an object, got {type(data).__name__}"]
    if data.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema must be {BENCH_SCHEMA!r}, got {data.get('schema')!r}"
        )
    for key, kind in _TOP_KEYS.items():
        if key not in data:
            problems.append(f"missing key {key!r}")
        elif not isinstance(data[key], kind):
            problems.append(
                f"{key!r} must be {kind}, got {type(data[key]).__name__}"
            )
    if isinstance(data.get("mode"), str) and data["mode"] not in _MODES:
        problems.append(f"mode must be one of {_MODES}, got {data['mode']!r}")
    wall = data.get("wall_s")
    if isinstance(wall, dict):
        missing = _WALL_KEYS - set(wall)
        if missing:
            problems.append(f"wall_s missing {sorted(missing)}")
        rounds = wall.get("per_round")
        if isinstance(rounds, list):
            if not rounds:
                problems.append("wall_s.per_round is empty")
            elif not all(isinstance(r, (int, float)) and r >= 0
                         for r in rounds):
                problems.append("wall_s.per_round must be non-negative numbers")
        elif "per_round" in wall:
            problems.append("wall_s.per_round must be a list")
        for stat in ("mean", "min", "max"):
            if stat in wall and not isinstance(wall[stat], (int, float)):
                problems.append(f"wall_s.{stat} must be a number")
    throughput = data.get("throughput", None)
    if throughput is not None:
        if not isinstance(throughput, dict) or \
                set(throughput) != {"value", "unit"}:
            problems.append(
                "throughput must be null or {'value', 'unit'}"
            )
        elif not isinstance(throughput.get("value"), (int, float)):
            problems.append("throughput.value must be a number")
    fp = data.get("fingerprint")
    if isinstance(fp, dict):
        missing = _FINGERPRINT_KEYS - set(fp)
        if missing:
            problems.append(f"fingerprint missing {sorted(missing)}")
    return problems
