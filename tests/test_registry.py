"""The experiment table is the one declaration every front end reads.

These guards keep it that way: each row binds to its function at both
scales, owns a golden document, and reproduces that document (title,
rows and the exact ``work`` counts) byte for byte, with or without the
instruments that observe it.
"""

import inspect
import json
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.bench.registry import BY_NAME, EXPERIMENTS
from repro.bench.tables import rows_to_json
from repro.faults import FaultSpec, fault_injection
from repro.obs import ObsSession, TraceBus

GOLDEN = Path(__file__).parent.parent / "benchmarks" / "golden"


def test_names_are_unique():
    assert len(BY_NAME) == len(EXPERIMENTS)


@pytest.mark.parametrize("exp", EXPERIMENTS, ids=lambda exp: exp.name)
def test_row_is_complete(exp):
    signature = inspect.signature(exp.func)
    signature.bind(**exp.quick)
    signature.bind(**exp.full)
    assert (GOLDEN / f"{exp.name}_quick.json").exists()


def _flat(text):
    """A golden document with one key per thing that can move (``rows``,
    ``work.events.Charge``, ``work.programs.NAME/TIER``), so that a
    mismatch names it."""
    document = json.loads(text)
    flat = {"title": document["title"], "rows": document["rows"]}
    for block, value in document["work"].items():
        if isinstance(value, dict):
            flat.update((f"work.{block}.{name}", count)
                        for name, count in value.items())
        else:
            flat[f"work.{block}"] = value
    return flat


def _assert_matches_golden(exp, rows, work):
    # What ``python -m repro experiment <name> --quick --json`` prints.
    document = rows_to_json(exp.title, rows, work) + "\n"
    golden = (GOLDEN / f"{exp.name}_quick.json").read_text()
    assert _flat(document) == _flat(golden)
    assert document == golden


@pytest.mark.parametrize("exp", EXPERIMENTS, ids=lambda exp: exp.name)
def test_quick_rows_match_golden(exp, monkeypatch):
    # Every tracepoint site is guarded (``if bus.enabled:``, or ``if
    # span:`` for a span id a disabled bus handed out as 0), so an
    # unobserved run makes no call on the bus at all.
    disabled_calls = []
    for method in ("emit", "span_start", "span_end"):
        def counted(bus, *args, _real=getattr(TraceBus, method),
                    _method=method, **kwargs):
            if not bus.enabled:
                caller = sys._getframe(1).f_code
                disabled_calls.append(
                    f"{_method} from {caller.co_name} "
                    f"({Path(caller.co_filename).name})")
            return _real(bus, *args, **kwargs)

        monkeypatch.setattr(TraceBus, method, counted)
    rows, work = exp.run_counted(quick=True)
    exp.check(rows)
    _assert_matches_golden(exp, rows, work)
    assert disabled_calls == [], \
        f"{exp.name}: calls on a disabled bus: {sorted(set(disabled_calls))}"


@pytest.mark.parametrize("name", ["fig3c", "fig3b", "pushdown", "cluster",
                                  "tenants", "compaction"])
def test_instrumentation_changes_no_work(name):
    # The bus and an armed fault plan whose every rate is zero only
    # observe: the same rows, the same events dispatched, the same
    # instructions retired.  The rows cover every package that emits
    # (kernel, chains, net, cluster, qos, compact).
    exp = BY_NAME[name]
    idle = FaultSpec(seed=5)
    assert all(getattr(idle, field.name) == 0 for field in fields(FaultSpec)
               if field.name.endswith(("_rate", "_flushes", "_rpcs")))
    with ObsSession():
        _assert_matches_golden(exp, *exp.run_counted(quick=True))
    with fault_injection(idle):
        _assert_matches_golden(exp, *exp.run_counted(quick=True))
