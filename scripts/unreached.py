#!/usr/bin/env python3
"""Fence the functions under ``src/`` that no user-facing entry point enters.

Runs a fixed list of entry points in this one process under a
``sys.settrace`` hook that records the code object of every Python frame
it sees (the hook returns None, so no line events fire; ``settrace``
rather than ``setprofile`` because ``python -m repro profile`` installs
its own profile hook):

* ``python -m repro report --quick`` (every experiment row);
* the ``metrics``, ``profile`` and ``experiment`` commands CI runs, each
  writing any file into a temporary directory;
* ``python -m repro disasm P`` for each of the five library programs;
* ``python -m repro verify-demo``;
* every script under ``examples/``;
* ``python bench_e2e/run.py --workload W --quick --trace 0`` for each of
  the six benchmark workloads.

Every function defined under ``src/repro`` that none of them enters must
be listed in ``scripts/unreached.txt``, one ``module:qualname`` per line
followed by the reason it stays although only tests reach it.  The
script prints, grouped by module, each unreached function that is not
listed, each listed function that is now reached or no longer defined,
and a total; it exits non-zero if it printed any, or if an entry point
failed.  Lambdas, comprehensions and class bodies are not counted, and a
name defined twice in one scope counts as unreached if either definition
is.  Takes about half a minute; stdlib only::

    python scripts/unreached.py
"""

import contextlib
import io
import os
import runpy
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LISTED = os.path.join(ROOT, "scripts", "unreached.txt")
PROGRAMS = ("index", "scan", "linked", "merge", "wisckey")
WORKLOADS = ("btree_chain", "plain_rw", "cluster_ycsb", "tenants_qos",
             "lsm_compaction", "verify_install")
#: Flags every ``def`` has and a class or module body does not.
_FUNCTION = 0x1 | 0x2       # CO_OPTIMIZED | CO_NEWLOCALS


def cli_commands(scratch):
    """The ``python -m repro`` argument lists, in the order they run."""
    def path(name):
        return os.path.join(scratch, name)

    commands = [["report", "--quick"],
                ["metrics", "fig3b", "--quick",
                 "--trace-jsonl", path("fig3b.jsonl")],
                ["metrics", "fig3c", "--quick", "--fault-plan",
                 "seed=7,read_error_rate=0.02,error_burst=2"],
                ["metrics", "recovery", "--quick", "--fault-plan",
                 "seed=3,write_error_rate=0.05"]]
    commands += [["metrics", name, "--quick"]
                 for name in ("fig3d", "compaction", "pushdown", "crash",
                              "churn", "interference")]
    commands += [["profile", "fig3b", "--quick", "--dump",
                  path("fig3b.pstats")],
                 ["experiment", "crash", "--quick", "--json"],
                 ["experiment", "fig3c", "--quick", "--json",
                  "--trace-jsonl", path("fig3c.jsonl"),
                  "--fault-plan", "seed=7"]]
    commands += [["disasm", name] for name in PROGRAMS]
    commands.append(["verify-demo"])
    return commands


def entry_points(scratch):
    """``(label, thunk)`` per entry point, in the order they run."""
    from repro.cli import main as cli

    points = [(" ".join(argv), lambda argv=argv: cli(argv))
              for argv in cli_commands(scratch)]
    examples = os.path.join(ROOT, "examples")
    points += [(f"examples/{name}",
                lambda path=os.path.join(examples, name):
                runpy.run_path(path, run_name="__main__"))
               for name in sorted(os.listdir(examples))
               if name.endswith(".py")]
    run_py = os.path.join(ROOT, "bench_e2e", "run.py")
    points += [(f"bench_e2e {workload}",
                lambda workload=workload: _run_script(
                    run_py, ["--workload", workload, "--quick",
                             "--trace", "0"]))
               for workload in WORKLOADS]
    return points


def _run_script(path, argv):
    saved = sys.argv
    sys.argv = [path] + argv
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = saved


def defined_functions():
    """``{(file, first line, name): "module:qualname"}`` for every
    function defined under ``src/repro``."""
    found = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if not hasattr(const, "co_code"):
                continue
            name = const.co_name
            if name.startswith("<"):
                walk(const, module, prefix)     # inside a lambda, say
                continue
            qualname = prefix + name
            if const.co_flags & _FUNCTION == _FUNCTION:
                found[_key(const)] = f"{module}:{qualname}"
                walk(const, module, qualname + ".<locals>.")
            else:                               # a class body
                walk(const, module, qualname + ".")

    for folder, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            module = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
            module = module.removesuffix(".__init__")
            with open(path, encoding="utf-8") as source:
                walk(compile(source.read(), path, "exec"), module, "")
    return found


def _key(code):
    return (os.path.realpath(code.co_filename), code.co_firstlineno,
            code.co_name)


def run_entry_points():
    """The code objects every entry point entered, and each failure."""
    seen = set()
    add = seen.add

    def hook(frame, _event, _arg):
        add(frame.f_code)

    failures = []
    sys.path[:0] = [SRC, ROOT]
    with tempfile.TemporaryDirectory() as scratch:
        # On before the first import: a function run at import time counts.
        sys.settrace(hook)
        for label, thunk in entry_points(scratch):
            print(f"running {label} ...", file=sys.stderr, flush=True)
            sys.settrace(hook)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    thunk()
            except SystemExit as stop:
                if stop.code not in (None, 0):
                    failures.append(f"{label}: exit {stop.code}")
            except Exception as error:      # report it, measure the rest
                failures.append(f"{label}: {error!r}")
            finally:
                sys.settrace(None)
    return seen, failures


def read_listed(path=LISTED):
    """``{"module:qualname": reason}`` from the committed list."""
    listed = {}
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            line = line.strip()
            if line and not line.startswith("#"):
                name, reason = line.split(None, 1)
                listed[name] = reason
    return listed


def main():
    seen, failures = run_entry_points()
    entered = {_key(code) for code in seen}
    defined = defined_functions()
    unreached = {name for key, name in defined.items() if key not in entered}
    listed = read_listed()
    problems = defaultdict(list)
    for name in sorted(unreached - set(listed)):
        problems[name.split(":")[0]].append(f"unreached, not listed: {name}")
    for name in sorted(set(listed) - unreached):
        why = "reached" if name in defined.values() else "not defined"
        problems[name.split(":")[0]].append(f"listed but {why}: {name}")
    for module in sorted(problems):
        print(module)
        for problem in problems[module]:
            print(f"    {problem}")
    print(f"{len(unreached)} of {len(set(defined.values()))} functions "
          f"under src/ never entered, {len(listed)} listed")
    for failure in failures:
        print(f"entry point failed: {failure}")
    return 1 if failures or problems else 0


if __name__ == "__main__":
    sys.exit(main())
