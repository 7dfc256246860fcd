"""Command-line front end: ``python -m repro <command>``.

Commands:

* ``report [--quick]`` — run every experiment, print its paper-style
  table and assert its shape checks (``check``, and ``check_full`` at
  full scale); a violated check exits non-zero naming the row.
  ``--quick`` runs miniature versions in a few seconds.
* ``experiment <name>`` — run one row of the experiment table
  (:mod:`repro.bench.registry`: fig1, table1, fig3a ... compaction).
  An experiment name may also be
  used as the top-level command (``python -m repro scale --json`` is
  shorthand for ``python -m repro experiment scale --json``).
  ``--json`` prints the golden document (``benchmarks/golden/``: title,
  rows, and the exact ``work`` counts of the run) instead of a table;
  ``--trace-jsonl PATH`` additionally records the full tracepoint stream
  to ``PATH``;
  ``--fault-plan SPEC`` arms a deterministic fault plan (see
  ``docs/faults.md``) for every kernel the experiment builds.  Without
  it the row's shape checks are asserted as ``report`` asserts them.
* ``metrics <name>`` — run one experiment under the observability bus and
  print the layer ledger (per path, the mean ns per operation of every
  layer, waits included, plus ``total`` and ``unattributed``), the
  charges outside any operation, the chain-bypass line, stack-health
  metrics (including fault-path counters when ``--fault-plan`` is
  armed), and exemplar span trees.  Exits non-zero, naming the
  operation, when a closed operation leaves time unattributed.
* ``profile <name>`` — run one experiment (any row) under the standard
  library's ``cProfile`` and print the wall-clock hotspot report: self
  time by package (sim / ebpf / kernel / device / net / ...), the
  hottest functions, and the exact counts ``repro.perf`` keeps (events
  dispatched, instructions retired per eBPF program).  ``--dump PATH``
  additionally writes the ``pstats`` file any profile viewer reads.
* ``disasm <program>`` — print a library program's verified assembly
  (index, scan, linked, merge, wisckey), each instruction annotated with
  what the verifier's proof says of the registers it reads, marked
  ``guarded`` where the block tier's code keeps its run-time checks and
  ``unboxed`` where the pointer it makes is never built (only its offset
  is kept); the header counts both.
* ``verify-demo`` — show the verifier accepting a safe program and
  rejecting unsafe ones, with reasons.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import traceback

from repro.bench.registry import BY_NAME, EXPERIMENTS
from repro.bench.tables import format_table, rows_to_json
from repro.faults import fault_injection, parse_fault_spec
from repro.obs import ObsSession
from repro.perf import profiling, render_profile

__all__ = ["main"]


_PROGRAMS = {
    "index": lambda: _library().index_traversal_program(fanout=16),
    "scan": lambda: _library().scan_aggregate_program(fanout=16),
    "linked": lambda: _library().linked_list_program(),
    "merge": lambda: _compact_programs().sstable_merge_program(),
    "wisckey": lambda: _library().wisckey_get_program(fanout=16),
}


def _library():
    import repro.core.library as library

    return library


def _compact_programs():
    import repro.compact.programs as programs

    return programs


def _assert_shape(exp, rows, quick: bool) -> None:
    """The row's shape checks (``check``, and ``check_full`` at full
    scale); a violated one ends the command non-zero, naming the row and
    the assertion."""
    try:
        exp.check(rows)
        if not quick and exp.check_full is not None:
            exp.check_full(rows)
    except AssertionError:
        raise SystemExit(
            f"{exp.name}: shape check failed\n{traceback.format_exc()}")


def _cmd_report(args) -> int:
    for exp in EXPERIMENTS:
        rows = exp.run(args.quick)
        print(format_table(exp.title, list(rows[0]), rows))
        print()
        _assert_shape(exp, rows, args.quick)
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


def _cmd_experiment(args) -> int:
    exp = BY_NAME[args.name]
    counting = profiling() if args.json else contextlib.nullcontext()
    with _fault_context(args), counting as counts:
        if args.trace_jsonl:
            _touch(args.trace_jsonl)
            with ObsSession(record_jsonl=True) as obs:
                rows = exp.run(args.quick)
            obs.write_trace_jsonl(args.trace_jsonl)
        else:
            rows = exp.run(args.quick)
    if args.json:
        print(rows_to_json(exp.title, rows, counts.work()))
    else:
        print(format_table(exp.title, list(rows[0]), rows))
    # A fault plan reshapes the rows on purpose.
    if not args.fault_plan:
        _assert_shape(exp, rows, args.quick)
    return 0


def _cmd_metrics(args) -> int:
    exp = BY_NAME[args.name]
    if args.trace_jsonl:
        _touch(args.trace_jsonl)
    with _fault_context(args):
        with ObsSession(record_jsonl=bool(args.trace_jsonl)) as obs:
            exp.run(args.quick)
    if args.trace_jsonl:
        obs.write_trace_jsonl(args.trace_jsonl)
    print(f"{exp.title} — observability report")
    print()
    print(obs.render_report())
    leaks = obs.spans.unattributed
    if leaks:
        root = leaks[0]
        raise SystemExit(
            f"{exp.name}: {len(leaks)} operations leave time unattributed, "
            f"first {root.name} #{root.sid}: {root.ledger['unattributed']} ns")
    return 0


def _cmd_profile(args) -> int:
    import cProfile
    from time import perf_counter

    exp = BY_NAME[args.name]
    # builtins=False: a C call's time stays in the function that made it.
    timer = cProfile.Profile(builtins=False)
    with _fault_context(args), profiling() as counts:
        started = perf_counter()
        timer.runcall(exp.run, args.quick)
        wall_s = perf_counter() - started
    print(f"{exp.title} — simulator self-profile (wall clock)")
    print()
    print(render_profile(counts, timer, top=args.top, wall_s=wall_s))
    if args.dump:
        timer.dump_stats(args.dump)
        print(f"\npstats dump -> {args.dump}")
    return 0


def _cmd_disasm(args) -> int:
    from repro.core.hooks import storage_helpers
    from repro.ebpf import Vm, verify
    from repro.ebpf.disasm import disassemble
    from repro.ebpf.vm import pointer_values

    program = _PROGRAMS[args.program]()
    helpers = storage_helpers()
    stats = verify(program, helpers, state_budget=500_000)
    inverse = {v: k for k, v in helpers.names().items()}
    # What the proof says of the registers each instruction reads, where
    # the block tier's code for it keeps its run-time guards all the same
    # and which pointers it never builds (``Vm.guarded``, ``Vm.unboxed``:
    # what these helpers really compiled).
    vm = Vm(program, helpers, mode="block")
    comments = {}
    for pc, known in enumerate(program.proof.facts):
        notes = ["unreached"] if known is None else [
            f"r{reg}={fact!r}" for reg, fact in enumerate(known)
            if fact is not None]
        if pc in vm.guarded:
            notes.append("guarded")
        if pc in vm.unboxed:
            notes.append("unboxed")
        comments[pc] = " ".join(notes)
    memory = [pc for pc, insn in enumerate(program.instructions)
              if insn.opcode.startswith(("ldx", "st"))]
    print(f"; {program.name}: {len(program)} instructions, verified "
          f"({stats.states_explored} states explored)")
    print(f"; {sum(pc not in vm.guarded for pc in memory)} of "
          f"{len(memory)} memory sites proven")
    print(f"; {len(vm.unboxed)} of "
          f"{len(pointer_values(program, program.proof.facts))} pointer "
          "values never built")
    print(disassemble(program.instructions, helper_names=inverse,
                      comments=comments))
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

    ``experiment``, ``metrics`` and ``profile`` take an experiment name
    plus the same run-shaping flags; a new row in the experiment table is
    available to all three (and to the top-level name shorthand) without
    touching the parser code.
    """
    parser = sub.add_parser(command, help=help_text)
    parser.add_argument("name",
                        choices=sorted(BY_NAME))
    parser.add_argument("--quick", action="store_true",
                        help="miniature run (seconds instead of minutes)")
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

    metrics = _add_runner_parser(
        sub, "metrics", "run one experiment under the observability bus",
        _cmd_metrics)
    for traced in (experiment, metrics):
        traced.add_argument("--trace-jsonl", metavar="PATH", default=None,
                            help="record the tracepoint stream to PATH")

    profile = _add_runner_parser(
        sub, "profile", "run one experiment under the self-profiler",
        _cmd_profile)
    profile.add_argument("--top", type=int, default=15, metavar="N",
                         help="functions to list (default 15)")
    profile.add_argument("--dump", metavar="PATH", default=None,
                         help="write the pstats file to PATH")

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
    if argv and argv[0] in BY_NAME:
        argv = ["experiment"] + list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
