#!/usr/bin/env python
"""Compare two checkouts on one benchmark workload, rep by rep.

    python scripts/compare_reps.py --parent <checkout> [--change .]
        --workload W [--seed S] [--reps N] [--quick]

A shared box runs in phases minutes long in which every rep of every
commit costs up to x1.5 more CPU, so one run per side compares the
phases, not the commits.  This script starts one long-lived interpreter
per checkout (each imports ``bench_e2e`` and ``repro`` from *its own*
tree, runs the workload's set-up and one warm-up rep) and then steps
them alternately one timed rep at a time (A B, B A, ...) through
``bench_e2e.harness.prepare`` / ``execute`` / ``finish``: the two reps
of a pair sit seconds apart, inside one phase.

Printed per side: rep wall seconds (min, quartiles), ``ops/s`` from the
fast-quartile rep as ``host_ops_per_s`` computes it, and the rep pairs
won; then parent/change ratios of the minima, the fast quartiles and
the medians; then each side's peak RSS (``ru_maxrss`` of its
interpreter, as ``host_peak_rss_mb`` reads it) after set-up and the
warm-up rep, and again after its reps, so one sees whether a workload's
peak is set at set-up or grows with the reps; last a verdict line:
"gain" only if at least ten pairs ran, the change won at least nine
tenths of them and the medians differ by more than the parent's
interquartile spread (:func:`verdict`).

Exit codes: 0 compared; 1 the two sides' ``Rep.signature()`` differ (a
simulated number moved), a rep failed or an interpreter died; 2 a
checkout has no benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from statistics import median
from typing import Dict, List


def serve(root: str, name: str, seed: int, quick: bool) -> None:
    """One side: set up, then one rep per line read, replying in JSON."""
    reply, sys.stdout = sys.stdout, sys.stderr  # stray prints: not replies
    sys.path[:0] = [os.path.join(root, "src"), root]
    from bench_e2e import harness
    from bench_e2e.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, quick)
    outcome = harness.Outcome(workload)
    workload.setup()
    timed = []
    while True:  # the first rep is the warm-up: timed, not reported
        executed = harness.execute(workload,
                                   harness.prepare(workload, "primary"))
        harness.finish(workload, executed, outcome)  # fills rep.digest
        timed.append(executed)
        signature = repr(executed.rep.signature()).encode()
        reply.write(json.dumps({
            "wall_s": executed.wall_s,
            "signature": hashlib.sha256(signature).hexdigest(),
            "correct": outcome.correct,
            "ops_per_s": executed.rep.ops
            / harness.undisturbed_rep_s(timed[1:] or timed),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }) + "\n")
        reply.flush()
        if not sys.stdin.readline():
            return


class Side:
    def __init__(self, label: str, root: str, args):
        self.label = label
        self.walls: List[float] = []
        self.won = 0
        self.last: Dict = {}  # the newest reply
        command = [sys.executable, os.path.abspath(__file__), "--serve",
                   os.path.abspath(root), "--workload", args.workload,
                   "--seed", str(args.seed)]
        if args.quick:
            command.append("--quick")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def result(self) -> Dict:
        line = self.process.stdout.readline()
        if not line:
            raise SystemExit(f"compare_reps: the {self.label} interpreter "
                             f"died (exit {self.process.wait()})")
        self.last = json.loads(line)
        if not self.last["correct"]:
            raise SystemExit(f"compare_reps: a {self.label} rep failed")
        return self.last

    def rep(self) -> float:
        self.process.stdin.write("rep\n")
        self.process.stdin.flush()
        self.walls.append(self.result()["wall_s"])
        return self.walls[-1]


def quartiles(walls: List[float]):
    """``(min, q1, median, q3)`` of rep wall seconds."""
    ordered = sorted(walls)
    return (ordered[0], ordered[len(ordered) // 4], median(ordered),
            ordered[3 * len(ordered) // 4])


def peak_rss_line(parent_mb: float, change_mb: float,
                  when: str = "after the reps") -> str:
    """Each side's peak RSS in MB at ``when``, and their ratio."""
    return (f"  peak RSS (ru_maxrss {when}): parent "
            f"{parent_mb:.1f} MB  change {change_mb:.1f} MB  parent / "
            f"change x{parent_mb / change_mb:.2f}")


def verdict(parent: List[float], change: List[float], won: int) -> str:
    """The gain rule of the ``choosing-metrics`` guide, section 8, on rep
    wall seconds (lower is better) of ``len(parent)`` interleaved pairs,
    ``won`` of which the change won (ties count for neither side).

    A gain needs at least ten pairs, the change winning at least nine
    tenths of them, and the change's median below the parent's by more
    than the parent's interquartile spread (q3 - q1).
    """
    pairs = len(parent)
    _low, q1, parent_median, q3 = quartiles(parent)
    gap = parent_median - median(change)
    spread = q3 - q1
    misses = []
    if pairs < 10:
        misses.append(f"{pairs} pairs, fewer than 10")
    if won * 10 < pairs * 9:
        misses.append(f"change won {won} of {pairs} pairs, under 9/10")
    if gap <= spread:
        misses.append(f"median gap {gap:.3f} s not above the parent's "
                      f"interquartile spread {spread:.3f} s")
    if misses:
        return "verdict: no gain (" + "; ".join(misses) + ")"
    return (f"verdict: gain (change won {won} of {pairs} pairs; median gap "
            f"{gap:.3f} s above the parent's interquartile spread "
            f"{spread:.3f} s)")


def compare(args) -> int:
    for root in (args.parent, args.change):
        if not os.path.isdir(os.path.join(root, "bench_e2e")) \
                or not os.path.isdir(os.path.join(root, "src", "repro")):
            sys.stderr.write(f"compare_reps: no bench_e2e/ and src/repro/ "
                             f"under {root}\n")
            return 2
    sides = [Side("parent", args.parent, args),
             Side("change", args.change, args)]
    try:
        same = sides[0].result()["signature"] \
            == sides[1].result()["signature"]  # the warm-up reps
        warm_rss = [side.last["peak_rss_mb"] for side in sides]
        for pair in range(args.reps):
            if not same:
                break
            first, second = sides[::-1] if pair % 2 else sides
            a, b = first.rep(), second.rep()
            if a != b:
                (first if a < b else second).won += 1
            print(f"pair {pair + 1:>3}: parent {sides[0].walls[-1]:.3f} s  "
                  f"change {sides[1].walls[-1]:.3f} s", flush=True)
            same = sides[0].last["signature"] == sides[1].last["signature"]
    finally:
        for side in sides:
            side.process.stdin.close()
            side.process.wait()
    if not same:
        print("compare_reps: Rep.signature() differs between the sides: a "
              "simulated number moved")
        return 1
    print(f"{args.workload}, seed {args.seed}"
          f"{', QUICK' if args.quick else ''}: {args.reps} interleaved rep "
          f"pairs, wall s of one rep")
    for side in sides:
        low, fast, mid, slow = quartiles(side.walls)
        print(f"  {side.label}: min {low:.3f}  q1 {fast:.3f}  median "
              f"{mid:.3f}  q3 {slow:.3f}  ops/s at the fast quartile "
              f"{side.last['ops_per_s']:,.0f}  pairs won {side.won}")
    for what, parent, change in zip(("minima", "fast quartiles", "medians"),
                                    quartiles(sides[0].walls),
                                    quartiles(sides[1].walls)):
        print(f"  parent / change on {what}: x{parent / change:.2f}")
    print(peak_rss_line(*warm_rss, when="after set-up and the warm-up rep"))
    print(peak_rss_line(*(side.last["peak_rss_mb"] for side in sides)))
    print(verdict(sides[0].walls, sides[1].walls, sides[1].won))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", default=".",
                        help="checkout of the change (default: .)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=20,
                        help="interleaved rep pairs (default 20)")
    parser.add_argument("--quick", action="store_true",
                        help="shrunken sizes: checks the script, not a claim")
    parser.add_argument("--serve", metavar="ROOT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        serve(args.serve, args.workload, args.seed, args.quick)
        return 0
    if not args.parent or args.reps < 1:
        parser.error("--parent and --reps >= 1 are required")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
