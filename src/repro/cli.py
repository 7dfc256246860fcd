"""Command-line front end: ``python -m repro <command>``.

Commands:

* ``report [--quick]`` — run every experiment and print its paper-style
  table (``--quick`` runs miniature versions in a few seconds).
* ``experiment <name>`` — run one experiment (fig1, table1, fig3a, fig3b,
  fig3c, fig3d, stability, bound, churn, vmmode, appcache, interference,
  resilience, crash, scale, pushdown, cluster, tenants, compaction).  An
  experiment name may also be
  used as the top-level command (``python -m repro scale --json`` is
  shorthand for ``python -m repro experiment scale --json``).
  ``--json`` prints the rows as JSON instead of a table; ``--trace-jsonl
  PATH`` additionally records the full tracepoint stream to ``PATH``;
  ``--fault-plan SPEC`` arms a deterministic fault plan (see
  ``docs/faults.md``) for every kernel the experiment builds;
  ``--crash-at MODE:INDEX`` narrows the ``crash`` experiment to a single
  enumerated crash point (e.g. ``flush:2`` or ``op-torn:9``).
* ``metrics <name>`` — run one experiment under the observability bus and
  print per-layer CPU-ns attribution (reconciled against Table 1), the
  chain-bypass summary, stack-health metrics (including fault-path
  counters when ``--fault-plan`` is armed), and exemplar span trees.
* ``profile <name>`` — run one experiment under the self-profiler
  (``repro.perf``) and print the wall-clock hotspot report: self and
  cumulative time by subsystem (engine / vm / kernel / device / net /
  obs), the hottest call sites, and eBPF program/opcode statistics.
  ``--collapsed PATH`` additionally writes flamegraph-format collapsed
  stacks (``-`` for stdout).
* ``disasm <program>`` — print a library program's verified assembly
  (index, scan, linked, wisckey).
* ``verify-demo`` — show the verifier accepting a safe program and
  rejecting unsafe ones, with reasons.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Dict, List

from repro.bench import (
    ablation_app_cache,
    ablation_invalidation_rate,
    ablation_resubmit_bound,
    ablation_vm_mode,
    cluster_failover,
    compaction,
    crash_consistency,
    extent_stability,
    fault_resilience,
    fig1_latency_breakdown,
    fig3_throughput,
    fig3c_latency,
    fig3d_iouring,
    format_table,
    interference,
    mq_scaling,
    net_pushdown,
    rows_to_json,
    table1_breakdown,
    tenants,
)
from repro.faults import fault_injection, parse_fault_spec
from repro.obs import ObsSession

__all__ = ["main"]


def _columns(rows: List[Dict]) -> List[str]:
    return list(rows[0].keys()) if rows else []


_EXPERIMENTS = {
    "fig1": ("Figure 1 — kernel overhead per device",
             lambda quick: fig1_latency_breakdown(reads=50 if quick
                                                  else 300)),
    "table1": ("Table 1 — 512 B read() breakdown",
               lambda quick: table1_breakdown(reads=50 if quick else 300)),
    "fig3a": ("Figure 3a — syscall hook throughput",
              lambda quick: fig3_throughput(
                  "syscall",
                  depths=(4,) if quick else (2, 6, 10),
                  threads=(1, 6) if quick else (1, 2, 4, 6, 8, 12),
                  duration_ns=2_000_000 if quick else 8_000_000)),
    "fig3b": ("Figure 3b — NVMe hook throughput",
              lambda quick: fig3_throughput(
                  "nvme",
                  depths=(4,) if quick else (2, 6, 10),
                  threads=(1, 6, 12) if quick else (1, 2, 4, 6, 8, 12),
                  duration_ns=2_000_000 if quick else 8_000_000)),
    "fig3c": ("Figure 3c — single-thread latency",
              lambda quick: fig3c_latency(
                  depths=(2, 6) if quick else (1, 2, 3, 4, 6, 8, 10, 16),
                  operations=30 if quick else 100)),
    "fig3d": ("Figure 3d — io_uring batch sweep",
              lambda quick: fig3d_iouring(
                  depths=(4,) if quick else (3, 6, 10),
                  batches=(1, 8) if quick else (1, 2, 4, 8, 16, 32),
                  duration_ns=2_000_000 if quick else 8_000_000)),
    "stability": ("§4 — extent stability under YCSB",
                  lambda quick: extent_stability(
                      sim_hours=0.05 if quick else 2.0,
                      ops_per_sec=500,
                      rebuild_overlay=3000 if quick else 32_000,
                      gc_every_rebuilds=3 if quick else 120,
                      initial_keys=3000 if quick else 20_000)),
    "bound": ("Ablation — resubmission bound",
              lambda quick: ablation_resubmit_bound(
                  chain_length=8 if quick else 24,
                  bounds=(2, 8) if quick else (2, 4, 8, 16, 64),
                  lookups=10 if quick else 50)),
    "churn": ("Ablation — extent churn",
              lambda quick: ablation_invalidation_rate(
                  intervals_us=(None, 500) if quick
                  else (None, 5000, 1000, 200),
                  duration_ns=2_000_000 if quick else 8_000_000)),
    "vmmode": ("Ablation — interp vs block",
               lambda quick: ablation_vm_mode(
                   depth=3 if quick else 6,
                   operations=30 if quick else 200)),
    "appcache": ("Ablation — app-level index cache",
                 lambda quick: ablation_app_cache(
                     depth=4 if quick else 6,
                     cached_levels=(0, 2) if quick else (0, 1, 2, 3, 5),
                     operations=30 if quick else 150)),
    "interference": ("§4 fairness — chains vs plain readers",
                     lambda quick: interference(
                         chain_threads=6 if quick else 12,
                         duration_ns=2_000_000 if quick else 8_000_000)),
    "resilience": ("Fault plan — availability and p99 of chained reads",
                   lambda quick: fault_resilience(
                       rates=(0.0, 0.01) if quick
                       else (0.0, 0.001, 0.01, 0.05),
                       duration_ns=1_500_000 if quick else 4_000_000)),
    "crash": ("Crash consistency — enumerated power cuts, recovery, fsck",
              lambda quick: crash_consistency(
                  modes=("flush", "op-torn") if quick
                  else ("flush", "op", "op-torn", "sync"))),
    "scale": ("Multi-queue NVMe — IOPS vs SQ/CQ pairs (IRQ steering)",
              lambda quick: mq_scaling(
                  queue_pairs=(1, 2, 4) if quick else (1, 2, 4, 8),
                  threads=(24,) if quick else (24, 32),
                  duration_ns=1_000_000 if quick else 2_000_000)),
    "pushdown": ("BPF-oF — naive vs pushdown GETs over the network",
                 lambda quick: net_pushdown(
                     depths=(2, 4) if quick else (1, 2, 3, 4, 5, 6),
                     rtts_us=(10, 20) if quick else (5, 10, 20, 50),
                     gets=10 if quick else 30)),
    "cluster": ("Sharded cluster — YCSB scaling + crash failover",
                lambda quick: cluster_failover(
                    shard_counts=(1, 2, 4) if quick else (1, 2, 4, 8),
                    ops=80 if quick else 160,
                    initial_keys=32 if quick else 48)),
    "tenants": ("Multi-tenant QoS — victim p99 vs an aggressor tenant",
                lambda quick: tenants(
                    duration_ns=2_000_000 if quick else 8_000_000)),
    "compaction": ("LSM compaction — user vs offloaded vs remote bytes",
                   lambda quick: compaction(
                       runs=3 if quick else 4,
                       keys_per_run=200 if quick else 600,
                       tombstones_per_run=20 if quick else 40)),
}

_CRASH_MODES = ("flush", "op", "op-torn", "sync")

_PROGRAMS = {
    "index": lambda: _library().index_traversal_program(fanout=16),
    "scan": lambda: _library().scan_aggregate_program(fanout=16),
    "linked": lambda: _library().linked_list_program(),
    "wisckey": lambda: _library().wisckey_get_program(fanout=16),
}


def _library():
    import repro.core.library as library

    return library


def _cmd_report(args) -> int:
    for name, (title, runner) in _EXPERIMENTS.items():
        rows = runner(args.quick)
        print(format_table(title, _columns(rows), rows))
        print()
    return 0


def _touch(path: str) -> None:
    """Fail fast on an unwritable trace path, before the experiment runs."""
    with open(path, "w", encoding="utf-8"):
        pass


def _fault_context(args):
    """A context manager arming ``--fault-plan``, or a no-op without it."""
    spec = getattr(args, "fault_plan", None)
    if not spec:
        return contextlib.nullcontext()
    return fault_injection(parse_fault_spec(spec))


def _parse_crash_at(value: str):
    """``MODE:INDEX`` -> (mode, index) for ``--crash-at``."""
    mode, sep, index = value.partition(":")
    if not sep or mode not in _CRASH_MODES or not index.isdigit():
        raise SystemExit(
            f"--crash-at expects MODE:INDEX with MODE one of "
            f"{', '.join(_CRASH_MODES)} (got {value!r})")
    return mode, int(index)


def _cmd_experiment(args) -> int:
    title, runner = _EXPERIMENTS[args.name]
    crash_at = getattr(args, "crash_at", None)
    if crash_at:
        if args.name != "crash":
            raise SystemExit(
                "--crash-at only applies to the 'crash' experiment")
        mode, point = _parse_crash_at(crash_at)
        title = f"{title} [{mode}:{point}]"
        runner = lambda quick: crash_consistency(modes=(mode,),  # noqa: E731
                                                 point=point)
    with _fault_context(args):
        if args.trace_jsonl:
            _touch(args.trace_jsonl)
            with ObsSession(record_jsonl=True) as obs:
                rows = runner(args.quick)
            obs.write_trace_jsonl(args.trace_jsonl)
        else:
            rows = runner(args.quick)
    if args.json:
        print(rows_to_json(title, rows))
    else:
        print(format_table(title, _columns(rows), rows))
    return 0


def _cmd_metrics(args) -> int:
    title, runner = _EXPERIMENTS[args.name]
    if args.trace_jsonl:
        _touch(args.trace_jsonl)
    with _fault_context(args):
        with ObsSession(record_jsonl=bool(args.trace_jsonl)) as obs:
            runner(args.quick)
    if args.trace_jsonl:
        obs.write_trace_jsonl(args.trace_jsonl)
    print(f"{title} — observability report")
    print()
    print(obs.render_report())
    return 0


def _cmd_profile(args) -> int:
    from repro.perf import collapsed_stacks, profiling, render_profile

    title, runner = _EXPERIMENTS[args.name]
    with _fault_context(args):
        with profiling() as profiler:
            runner(args.quick)
    print(f"{title} — simulator self-profile (wall clock)")
    print()
    print(render_profile(profiler, top=args.top))
    if args.collapsed:
        text = collapsed_stacks(profiler)
        if args.collapsed == "-":
            sys.stdout.write(text)
        else:
            with open(args.collapsed, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"\ncollapsed stacks -> {args.collapsed}")
    return 0


def _cmd_disasm(args) -> int:
    from repro.core.hooks import storage_helpers
    from repro.ebpf import verify
    from repro.ebpf.disasm import disassemble

    program = _PROGRAMS[args.program]()
    helpers = storage_helpers()
    stats = verify(program, helpers, state_budget=500_000)
    inverse = {v: k for k, v in helpers.names().items()}
    print(f"; {program.name}: {len(program)} instructions, verified "
          f"({stats.states_explored} states explored)")
    print(disassemble(program.instructions, helper_names=inverse))
    return 0


def _cmd_verify_demo(args) -> int:
    from repro.core.hooks import storage_ctx_layout, storage_helpers
    from repro.ebpf import Program, assemble, verify
    from repro.errors import VerifierError

    helpers = storage_helpers()
    layout = storage_ctx_layout()
    samples = [
        ("safe bounded loop", """
            mov r2, 0
        loop:
            jge r2, 16, done
            add r2, 1
            ja  loop
        done:
            mov r0, 0
            exit
        """),
        ("out-of-bounds load", """
            ldxdw r2, [r1+0]
            ldxb  r3, [r2+4096]
            mov r0, 0
            exit
        """),
        ("unbounded loop", """
            ldxdw r3, [r1+8]
            mov r2, 0
        loop:
            jge r2, r3, done
            add r2, 1
            ja  loop
        done:
            mov r0, 0
            exit
        """),
        ("uninitialised register", "mov r0, r7\nexit"),
    ]
    for label, source in samples:
        program = Program(assemble(source, helpers.names()), layout,
                          name=label)
        try:
            stats = verify(program, helpers, state_budget=5000)
            print(f"ACCEPT  {label}  "
                  f"({stats.states_explored} states explored)")
        except VerifierError as error:
            print(f"REJECT  {label}  -> {error}")
    return 0


def _add_runner_parser(sub, command: str, help_text: str, func):
    """One experiment-running subcommand: shared name/flag wiring.

    Both ``experiment`` and ``metrics`` take an experiment name plus the
    same run-shaping flags; registering a new experiment in
    ``_EXPERIMENTS`` makes it available to both (and to the top-level
    name shorthand) without touching the parser code.
    """
    parser = sub.add_parser(command, help=help_text)
    parser.add_argument("name", choices=sorted(_EXPERIMENTS))
    parser.add_argument("--quick", action="store_true",
                        help="miniature run (seconds instead of minutes)")
    parser.add_argument("--trace-jsonl", metavar="PATH", default=None,
                        help="record the tracepoint stream to PATH")
    parser.add_argument(
        "--fault-plan", metavar="SPEC", default=None,
        help="arm a fault plan, e.g. "
             "'seed=7,read_error_rate=0.01,error_burst=2'")
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="BPF-for-storage reproduction: experiments and tooling")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="run every experiment")
    report.add_argument("--quick", action="store_true",
                        help="miniature runs (seconds instead of minutes)")
    report.set_defaults(func=_cmd_report)

    experiment = _add_runner_parser(sub, "experiment",
                                    "run one experiment", _cmd_experiment)
    experiment.add_argument("--json", action="store_true",
                            help="print result rows as JSON")
    experiment.add_argument(
        "--crash-at", metavar="MODE:INDEX", default=None,
        help="('crash' only) run a single crash point, e.g. 'flush:2' "
             "or 'op-torn:9'")

    _add_runner_parser(sub, "metrics",
                       "run one experiment under the observability bus",
                       _cmd_metrics)

    profile = sub.add_parser(
        "profile", help="run one experiment under the self-profiler")
    profile.add_argument("name", choices=sorted(_EXPERIMENTS))
    profile.add_argument("--quick", action="store_true",
                         help="miniature run (seconds instead of minutes)")
    profile.add_argument("--top", type=int, default=15, metavar="N",
                         help="call sites to list (default 15)")
    profile.add_argument("--collapsed", metavar="PATH", default=None,
                         help="write flamegraph collapsed stacks to PATH "
                              "('-' for stdout)")
    profile.add_argument(
        "--fault-plan", metavar="SPEC", default=None,
        help="arm a fault plan while profiling")
    profile.set_defaults(func=_cmd_profile)

    disasm = sub.add_parser("disasm",
                            help="disassemble a library BPF program")
    disasm.add_argument("program", choices=sorted(_PROGRAMS))
    disasm.set_defaults(func=_cmd_disasm)

    demo = sub.add_parser("verify-demo",
                          help="show the verifier accepting/rejecting")
    demo.set_defaults(func=_cmd_verify_demo)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Experiment-name shorthand: ``python -m repro scale --json`` runs
    # ``python -m repro experiment scale --json``.
    if argv and argv[0] in _EXPERIMENTS:
        argv = ["experiment"] + list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
