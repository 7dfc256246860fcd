"""The bench suite: run table rows, emit ``BENCH_<name>.json``.

Every row of :data:`repro.bench.registry.EXPERIMENTS` is a benchmark.
:func:`run_spec` times one row and builds a uniform ``repro-bench/1``
document (see :mod:`repro.perf.benchresult`): wall-clock rounds,
deterministic metrics, throughput, and a machine fingerprint.  Those
documents are the repo's perf trajectory; committed baselines live in
``benchmarks/baselines/`` and ``scripts/check_bench_regression.py`` diffs
fresh runs against them.

Run one benchmark with its table::

    python benchmarks/harness.py --only pushdown --smoke --tables

Run the whole suite (the CI regression path)::

    python benchmarks/harness.py --all --smoke --out bench_results

``--smoke`` runs each row's ``quick`` kwargs and its ``check``; without
it the row's ``full`` kwargs run and ``check_full`` is asserted too.
"""

import argparse
import gc
import os
import sys
import time

try:  # pragma: no cover - exercised via subprocess runs
    import repro  # noqa: F401
except ImportError:  # running as a script without PYTHONPATH=src
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bench.registry import BY_NAME
from repro.bench.tables import format_table
from repro.perf import BenchResult

__all__ = ["run_spec"]


def _column_mean(rows, column):
    values = [row[column] for row in rows
              if isinstance(row.get(column), (int, float))]
    if not values:
        return None
    return round(sum(values) / len(values), 6)


def _build_metrics(spec, rows):
    metrics = {}
    for column in spec.metric_cols:
        mean = _column_mean(rows, column)
        if mean is not None:
            metrics[f"{column}_mean"] = mean
    if spec.metrics_fn is not None:
        metrics.update(spec.metrics_fn(rows))
    metrics["table_rows"] = len(rows)
    return metrics


def _build_throughput(spec, rows):
    if spec.throughput is None:
        return None
    column, unit, agg = spec.throughput
    values = [row[column] for row in rows
              if isinstance(row.get(column), (int, float))]
    if not values:
        return None
    value = max(values) if agg == "max" else sum(values) / len(values)
    return {"value": round(value, 6), "unit": unit}


def run_spec(spec, mode="full", rounds=1):
    """Run table row ``spec`` and return ``(rows, BenchResult)``.

    With ``rounds > 1`` every round is timed separately; for
    deterministic benchmarks the rows must be identical across rounds
    (the simulation is a pure function of its seed — a mismatch means
    something nondeterministic leaked into the sim).
    """
    wall_rounds = []
    rows = None
    for round_index in range(max(1, rounds)):
        # The previous round's worlds sit in reference cycles until a full
        # collection; a round that starts on top of them pays for fresh
        # pages (interference: 0.83 s or 3.3 s of CPU for the same rows).
        gc.collect()
        started = time.perf_counter()
        out = spec.run(quick=mode == "smoke")
        wall_rounds.append(time.perf_counter() - started)
        if rows is not None and spec.deterministic and out != rows:
            raise AssertionError(
                f"{spec.name}: rows differ between rounds "
                f"{round_index - 1} and {round_index} — simulation is "
                f"supposed to be deterministic")
        rows = out
    result = BenchResult(
        name=spec.name,
        title=spec.title,
        mode=mode,
        wall_rounds_s=wall_rounds,
        throughput=_build_throughput(spec, rows),
        metrics=_build_metrics(spec, rows),
    )
    return rows, result


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the benchmark suite and emit BENCH_<name>.json "
                    "documents")
    parser.add_argument("--all", action="store_true",
                        help="run every row of the experiment table")
    parser.add_argument("--only", default=None, metavar="A,B",
                        help="comma-separated subset of experiment names")
    parser.add_argument("--smoke", "--quick", action="store_true",
                        dest="smoke",
                        help="miniature sweeps for CI smoke testing")
    parser.add_argument("--rounds", type=int, default=1, metavar="N")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="directory for BENCH_<name>.json files")
    parser.add_argument("--tables", action="store_true",
                        help="also print each benchmark's table")
    args = parser.parse_args(argv)
    if not args.all and not args.only:
        parser.error("pass --all or --only NAME[,NAME...]")
    names = args.only.split(",") if args.only else list(BY_NAME)
    unknown = sorted(set(names) - set(BY_NAME))
    if unknown:
        raise SystemExit(f"unknown benchmarks: {unknown}")
    specs = [BY_NAME[name] for name in names]
    os.makedirs(args.out, exist_ok=True)
    mode = "smoke" if args.smoke else "full"
    failures = []
    for spec in specs:
        started = time.perf_counter()
        try:
            rows, result = run_spec(spec, mode, rounds=args.rounds)
            spec.check(rows)
            if mode == "full" and spec.check_full is not None:
                spec.check_full(rows)
        except AssertionError as exc:
            failures.append(spec.name)
            print(f"FAIL  {spec.name}: {exc}")
            continue
        if args.tables:
            print(format_table(spec.title, list(rows[0]), rows))
        path = os.path.join(args.out, f"BENCH_{spec.name}.json")
        result.write(path)
        elapsed = time.perf_counter() - started
        print(f"ok    {spec.name:28s} {elapsed:7.2f}s  -> {path}")
    if failures:
        print(f"{len(failures)} benchmark(s) failed shape checks: "
              f"{failures}")
        return 1
    print(f"{len(specs)} benchmarks, mode={mode}, out={args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
