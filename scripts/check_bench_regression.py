#!/usr/bin/env python
"""Gate CI on benchmark wall-clock regressions against committed baselines.

Compares every ``BENCH_<name>.json`` under ``benchmarks/baselines/``
against a freshly generated set (``--fresh DIR``) produced by the same
harness (``python benchmarks/harness.py --all --smoke --out DIR``).

Wall-clock comparison uses the min over rounds on both sides — the
least-noisy estimator available — with a relative tolerance band
(``--tolerance 0.25`` means a fresh min more than 1.25x the baseline
min fails).  Simulated results (``throughput``, every ``metrics``
value) are deterministic functions of the workload, so any
difference there is result drift, not noise: reported as a warning by
default, a failure under ``--strict``.  The metrics of a row the
experiment table marks non-deterministic (``obs``, whose metrics are
wall-clock ratios) may differ; that always stays a warning.

Exit codes: 0 all gates passed, 1 wall-clock regression (or drift with
``--strict``), 2 schema/missing-file errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Tuple

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bench.registry import BY_NAME
from repro.perf import validate_bench_json

DEFAULT_BASELINES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "baselines")


def load_bench_dir(path: str) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
    """Load and schema-validate every BENCH_*.json in ``path``.

    Returns ``(results_by_name, schema_errors)``.
    """
    results: Dict[str, Dict[str, Any]] = {}
    errors: List[str] = []
    if not os.path.isdir(path):
        return results, [f"not a directory: {path}"]
    for fname in sorted(os.listdir(path)):
        if not (fname.startswith("BENCH_") and fname.endswith(".json")):
            continue
        fpath = os.path.join(path, fname)
        try:
            with open(fpath, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            errors.append(f"{fpath}: unreadable ({exc})")
            continue
        problems = validate_bench_json(data)
        if problems:
            errors.extend(f"{fpath}: {p}" for p in problems)
            continue
        results[data["name"]] = data
    return results, errors


def compare(baseline: Dict[str, Any], fresh: Dict[str, Any],
            tolerance: float, slack_s: float
            ) -> Tuple[List[str], List[str], List[str]]:
    """Compare one pair.  Returns ``(regressions, drifts, warnings)``."""
    name = baseline["name"]
    regressions: List[str] = []
    drifts: List[str] = []
    warnings: List[str] = []

    if fresh["mode"] != baseline["mode"]:
        drifts.append(
            f"{name}: mode changed {baseline['mode']!r} -> {fresh['mode']!r}"
            " (wall-clock comparison skipped)")
        return regressions, drifts, warnings

    # Absolute slack on top of the relative band: sub-100 ms benches
    # would otherwise fail on scheduler noise alone.
    base_min = baseline["wall_s"]["min"]
    fresh_min = fresh["wall_s"]["min"]
    limit = base_min * (1.0 + tolerance) + slack_s
    if fresh_min > limit:
        regressions.append(
            f"{name}: wall min {fresh_min:.4f}s > {limit:.4f}s "
            f"(baseline {base_min:.4f}s, tolerance {tolerance:.0%} "
            f"+ {slack_s:g}s slack)")

    # Simulated-time results are deterministic: drift means the workload
    # or the simulation changed, which deserves a refreshed baseline.
    if fresh["throughput"] != baseline["throughput"]:
        drifts.append(
            f"{name}: throughput {baseline['throughput']} -> "
            f"{fresh['throughput']}")
    base_metrics = baseline.get("metrics") or {}
    fresh_metrics = fresh.get("metrics") or {}
    if set(base_metrics) != set(fresh_metrics):
        only_base = sorted(set(base_metrics) - set(fresh_metrics))
        only_fresh = sorted(set(fresh_metrics) - set(base_metrics))
        drifts.append(f"{name}: metric keys changed "
                      f"(-{only_base} +{only_fresh})")
    # A name the table does not know (a hand-made document) is held to
    # the deterministic standard.
    exp = BY_NAME.get(name)
    changed = drifts if exp is None or exp.deterministic else warnings
    for key in sorted(set(base_metrics) & set(fresh_metrics)):
        if fresh_metrics[key] != base_metrics[key]:
            changed.append(f"{name}: metric {key} {base_metrics[key]} -> "
                           f"{fresh_metrics[key]}")
    return regressions, drifts, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True,
                        help="directory of freshly generated BENCH_*.json")
    parser.add_argument("--baselines", default=DEFAULT_BASELINES,
                        help="directory of committed baselines "
                             "(default: benchmarks/baselines)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative wall-clock slowdown allowed "
                             "(default: 0.25 = 25%%)")
    parser.add_argument("--slack", type=float, default=0.1, metavar="S",
                        help="absolute seconds added to the limit so tiny "
                             "benchmarks tolerate scheduler noise "
                             "(default: 0.1)")
    parser.add_argument("--strict", action="store_true",
                        help="fail on throughput/metric drift, "
                             "not just wall-clock regressions")
    args = parser.parse_args(argv)

    baselines, base_errors = load_bench_dir(args.baselines)
    fresh, fresh_errors = load_bench_dir(args.fresh)
    schema_errors = base_errors + fresh_errors
    if schema_errors:
        for err in schema_errors:
            print(f"schema error: {err}", file=sys.stderr)
        return 2
    if not baselines:
        print(f"schema error: no BENCH_*.json under {args.baselines}",
              file=sys.stderr)
        return 2

    regressions: List[str] = []
    drifts: List[str] = []
    warnings: List[str] = []
    missing = sorted(set(baselines) - set(fresh))
    if missing:
        for name in missing:
            print(f"schema error: no fresh result for {name!r} "
                  f"under {args.fresh}", file=sys.stderr)
        return 2
    extra = sorted(set(fresh) - set(baselines))
    for name in extra:
        drifts.append(f"{name}: fresh result has no committed baseline "
                      "(add one under benchmarks/baselines)")

    for name in sorted(baselines):
        regs, drift, warns = compare(baselines[name], fresh[name],
                                     args.tolerance, args.slack)
        regressions.extend(regs)
        drifts.extend(drift)
        warnings.extend(warns)
        status = "FAIL" if regs else "ok"
        base_min = baselines[name]["wall_s"]["min"]
        fresh_min = fresh[name]["wall_s"]["min"]
        ratio = fresh_min / base_min if base_min else float("inf")
        print(f"{status:4}  {name:28}  baseline {base_min:8.4f}s  "
              f"fresh {fresh_min:8.4f}s  ({ratio:.2f}x)")

    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    for message in drifts:
        print(f"drift: {message}", file=sys.stderr)
    for message in regressions:
        print(f"regression: {message}", file=sys.stderr)

    if regressions:
        return 1
    if drifts and args.strict:
        return 1
    print(f"all {len(baselines)} benchmarks within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
