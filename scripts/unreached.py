#!/usr/bin/env python3
"""List the functions under ``src/`` that no user-facing entry point enters.

Runs a fixed list of entry points in this one process under a
``sys.setprofile`` hook that records the code object of every Python
frame it sees, then prints, grouped by module, each function defined
under ``src/repro`` whose code object was never seen, and a total:

* ``python -m repro report --quick`` (every experiment row);
* ``python -m repro disasm P`` for each of the five library programs;
* ``python -m repro verify-demo``;
* every script under ``examples/``;
* ``python bench_e2e/run.py --workload W --quick --trace 0`` for each of
  the six benchmark workloads.

A function reached only by tests is listed: it is code no row, example or
workload uses.  Lambdas, comprehensions and class bodies are not counted.
Takes a few minutes (the hook slows every call); stdlib only::

    python scripts/unreached.py
"""

import contextlib
import io
import os
import runpy
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROGRAMS = ("index", "scan", "linked", "merge", "wisckey")
WORKLOADS = ("btree_chain", "plain_rw", "cluster_ycsb", "tenants_qos",
             "lsm_compaction", "verify_install")
#: Flags every ``def`` has and a class or module body does not.
_FUNCTION = 0x1 | 0x2       # CO_OPTIMIZED | CO_NEWLOCALS


def entry_points():
    """``(label, thunk)`` per entry point, in the order they run."""
    from repro.cli import main as cli

    points = [("report --quick", lambda: cli(["report", "--quick"]))]
    points += [(f"disasm {name}", lambda name=name: cli(["disasm", name]))
               for name in PROGRAMS]
    points.append(("verify-demo", lambda: cli(["verify-demo"])))
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
    """``{(file, first line, name): (module, qualified name)}`` for every
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
                found[_key(const)] = (module, qualname)
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
    # On before the first import: a function run at import time counts.
    sys.setprofile(hook)
    for label, thunk in entry_points():
        print(f"running {label} ...", file=sys.stderr, flush=True)
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                thunk()
        except SystemExit as stop:
            if stop.code not in (None, 0):
                failures.append(f"{label}: exit {stop.code}")
        except Exception as error:      # report it, measure the rest
            failures.append(f"{label}: {error!r}")
        finally:
            sys.setprofile(None)
    return seen, failures


def main():
    seen, failures = run_entry_points()
    entered = {_key(code) for code in seen}
    unreached = defaultdict(list)
    defined = defined_functions()
    for key, (module, qualname) in defined.items():
        if key not in entered:
            unreached[module].append((key[1], qualname))
    total = 0
    for module in sorted(unreached):
        print(module)
        for line, qualname in sorted(unreached[module]):
            print(f"    {line:5d}  {qualname}")
            total += 1
    print(f"{total} of {len(defined)} functions under src/ never entered")
    for failure in failures:
        print(f"entry point failed: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
