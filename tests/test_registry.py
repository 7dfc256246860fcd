"""The experiment table is the one declaration every front end reads.

These guards keep it that way: each row binds to its function at both
scales, owns a golden document if deterministic, and reproduces that
document (title, rows and the exact ``work`` counts) byte for byte.
"""

import inspect
import json
from pathlib import Path

import pytest

from repro.bench import rows_to_json
from repro.bench.registry import BY_NAME, DETERMINISTIC, EXPERIMENTS
from repro.faults import FaultSpec, fault_injection
from repro.obs import ObsSession

GOLDEN = Path(__file__).parent.parent / "benchmarks" / "golden"


def test_names_are_unique():
    assert len(BY_NAME) == len(EXPERIMENTS)


@pytest.mark.parametrize("exp", EXPERIMENTS, ids=lambda exp: exp.name)
def test_row_is_complete(exp):
    signature = inspect.signature(exp.func)
    signature.bind(**exp.quick)
    signature.bind(**exp.full)
    golden = GOLDEN / f"{exp.name}_quick.json"
    assert golden.exists() == exp.deterministic


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


@pytest.mark.parametrize("exp", DETERMINISTIC, ids=lambda exp: exp.name)
def test_quick_rows_match_golden(exp):
    # What ``python -m repro experiment <name> --quick --json`` prints.
    rows, work = exp.run_counted(quick=True)
    exp.check(rows)
    document = rows_to_json(exp.title, rows, work) + "\n"
    golden = (GOLDEN / f"{exp.name}_quick.json").read_text()
    assert _flat(document) == _flat(golden)
    assert document == golden


def test_instrumentation_changes_no_work():
    # The bus and an armed fault plan whose every rate is zero only
    # observe: the same events dispatched, the same instructions retired.
    exp = BY_NAME["hooks"]
    pinned = json.loads((GOLDEN / "hooks_quick.json").read_text())["work"]
    with ObsSession():
        assert exp.run_counted(quick=True)[1] == pinned
    with fault_injection(FaultSpec(seed=5)):
        assert exp.run_counted(quick=True)[1] == pinned
