#!/usr/bin/env python3
"""Compare two suite results, one row per (metric, workload).

    python bench_e2e/compare.py A.json B.json [--exact]
    python bench_e2e/compare.py --selfcheck [--quick] [--seed N]

``A`` is the parent, ``B`` the change; both are files written by
``run.py --json``.  Each end-to-end metric may worsen by its bound (a
share of A's value) before the row reads REGRESSION; any rise in failed
operations is a regression whatever its size.  Exits non-zero if any
row regressed.

``--exact`` also demands that every simulated metric and every exact
per-layer counter is bit-identical, which two runs of one commit on one
seed must satisfy.  ``--selfcheck`` runs the suite twice on the working
tree and compares the two that way.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE)]

from bench_e2e.metrics import END_TO_END, PER_LAYER  # noqa: E402


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def worse_by(metric, before, after):
    """Share of ``before`` by which ``after`` is worse (negative =
    better).  A metric that was 0 can only stay or become worse."""
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    change = (after - before) / abs(before)
    return change if metric.better == "lower" else 0.0 - change


def compare(parent, change, exact=False, out=sys.stdout):
    """Print the table; return the number of regressed rows."""
    regressions = 0
    if parent.get("quick") or change.get("quick"):
        out.write("note: QUICK results - sizes are shrunken, numbers are "
                  "not comparable with full runs\n")
    out.write(f"{'workload':<15} {'metric':<34} {'A':>14} {'B':>14} "
              f"{'worse by':>9} {'bound':>6}  verdict\n")
    for name, before in parent["workloads"].items():
        after = change["workloads"].get(name)
        if after is None:
            out.write(f"{name:<15} missing from B{'':<52}  REGRESSION\n")
            regressions += 1
            continue
        a0, b0 = before.get("trace0"), after.get("trace0")
        if a0 and b0:
            for metric in END_TO_END:
                va = a0["metrics"][metric.name]["value"]
                vb = b0["metrics"][metric.name]["value"]
                delta = worse_by(metric, va, vb)
                bad = delta > metric.bound
                if exact and metric.clock == "sim" and va != vb:
                    bad = True
                regressions += bad
                out.write(f"{name:<15} {metric.name:<34} {va:>14.6g} "
                          f"{vb:>14.6g} {100 * delta:>8.2f}% "
                          f"{100 * metric.bound:>5.0f}%  "
                          f"{'REGRESSION' if bad else 'ok'}\n")
            fa = a0["failed"] / a0["attempted"]
            fb = b0["failed"] / b0["attempted"]
            bad = fb > fa or not b0["correct"]
            regressions += bad
            out.write(f"{name:<15} {'ops_failed_pct':<34} {100 * fa:>14.6g} "
                      f"{100 * fb:>14.6g} {'':>9} {'0':>5}   "
                      f"{'REGRESSION' if bad else 'ok'}\n")
        a1, b1 = before.get("trace1"), after.get("trace1")
        if exact and a1 and b1:
            differing = [
                metric.name for metric in PER_LAYER if metric.exact
                and a1["metrics"][metric.name]["value"]
                != b1["metrics"][metric.name]["value"]]
            regressions += bool(differing)
            out.write(f"{name:<15} {'exact per-layer counters':<34} "
                      f"{'':>14} {'':>14} {'':>9} {'':>6}  "
                      + ("ok (all identical)" if not differing else
                         "REGRESSION: " + ", ".join(differing)) + "\n")
    out.write(f"{regressions} regression(s)\n")
    return regressions


def selfcheck(args):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, f"selfcheck_{side}.json")
             for side in "ab"]
    for path in paths:
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--seed", str(args.seed), "--json", path]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(command, stdout=subprocess.DEVNULL)
        if done.returncode:
            sys.stderr.write(f"suite run failed (exit {done.returncode})\n")
            return 2
    return 1 if compare(load(paths[0]), load(paths[1]), exact=True) else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results", nargs="*", metavar="JSON")
    parser.add_argument("--exact", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args)
    if len(args.results) != 2:
        parser.error("give two result files, or --selfcheck")
    parent, change = (load(path) for path in args.results)
    return 1 if compare(parent, change, exact=args.exact) else 0


if __name__ == "__main__":
    sys.exit(main())
