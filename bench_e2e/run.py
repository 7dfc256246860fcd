#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name, with its unit.

Suite (developers)::

    python bench_e2e/run.py [--seed N] [--reps N] [--quick]
                            [--json PATH] [--trace-out DIR]

runs all six workloads, each in its own fresh interpreter, one after
another, first untraced (end-to-end metrics) then traced (per-layer
metrics), and prints every metric.

One workload (what ``BENCHMARK.json`` tells the driver to run)::

    python bench_e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs that workload in *this* process and prints, as the last line of
standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

STARTED = time.perf_counter()  # process start, for setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SUITE_SCHEMA = "bench-e2e/1"
DEFAULT_SEED = 1


def _import_benchmark():
    """Put the checkout's own ``src`` and root first on the path."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.stderr.write(
            f"bench_e2e: no simulator at {source}/repro - this benchmark "
            f"measures the checkout it sits in\n")
        raise SystemExit(2)
    sys.path[:0] = [source, ROOT]


def _run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return int(json.load(fh)["run_seconds"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload generator seed (default 1); it "
                        "reaches only the generated inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed reps run (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--reps", type=int, default=None,
                        help="exactly this many timed reps instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                        "(suite default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="shrunken sizes, 1 rep: for developers and "
                        "the self-tests, never for BENCHMARK.json")
    parser.add_argument("--json", metavar="PATH",
                        help="(suite) write every result here")
    parser.add_argument("--trace-out", metavar="DIR",
                        help="write trace_<workload>.jsonl here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # harness._fresh_setups
    return parser.parse_args(argv)


def print_outcome(name, outcome, trace, absent, units):
    workload = outcome.workload
    label = " [QUICK: not comparable]" if workload.quick else ""
    print(f"== {name} ({'per-layer' if trace else 'end-to-end'}){label}")
    print(f"   {workload.clients}; op = {workload.op}")
    if workload.latency_op != workload.op:
        print(f"   latency op = {workload.latency_op}")
    print(f"   why: {workload.why}")
    for metric, value in outcome.metrics.items():
        shown = "-" if metric in absent else f"{value:.6g}"
        print(f"{name:<15} {metric:<36} {shown:>14} {units[metric]}")
    for note in outcome.notes:
        print(f"   note: {note}")
    failed = [check for check, ok in outcome.checks.items() if not ok]
    print(f"   checks: {len(outcome.checks) - len(failed)} of "
          f"{len(outcome.checks)} passed ({', '.join(outcome.checks)})"
          + (f"; FAILED: {', '.join(failed)}" if failed else ""))


def run_one(args) -> int:
    from bench_e2e import harness
    from bench_e2e.metrics import metric_units
    from bench_e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; one of "
                         f"{', '.join(WORKLOADS)}\n")
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": harness.setup_only(
            args.workload, args.seed, STARTED)}))
        return 0
    seconds = args.seconds if args.seconds is not None else _run_seconds()
    reps = args.reps or (1 if args.quick else None)
    trace = bool(args.trace)
    outcome = harness.run_workload(
        args.workload, args.seed, seconds, trace, args.quick, reps,
        args.trace_out, STARTED)
    absent = harness.fill_absent(outcome.metrics, trace)
    units = metric_units()
    print_outcome(args.workload, outcome, trace, absent, units)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


def run_suite(args) -> int:
    from bench_e2e.workloads import WORKLOADS

    traces = (0, 1) if args.trace is None else (args.trace,)
    results = {}
    status = 0
    begin = time.perf_counter()
    for name in WORKLOADS:
        results[name] = {}
        for trace in traces:
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--trace", str(trace)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.reps:
                command += ["--reps", str(args.reps)]
            if args.quick:
                command.append("--quick")
            if args.trace_out and trace:
                command += ["--trace-out", args.trace_out]
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.rstrip("\n").splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(done.stderr)
            try:
                results[name][f"trace{trace}"] = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"== {name}: no result (exit {done.returncode})")
                status = 1
                continue
            if done.returncode:
                status = 1
    elapsed = time.perf_counter() - begin
    print(f"suite: {len(WORKLOADS)} workloads, seed {args.seed}, "
          f"{'QUICK, ' if args.quick else ''}{elapsed:.1f} s, "
          f"{'all correct' if status == 0 else 'FAILED'}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"schema": SUITE_SCHEMA, "seed": args.seed,
                       "quick": args.quick, "workloads": results},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    _import_benchmark()
    if args.workload == "all":
        return run_suite(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
