"""The experiment table is the one declaration every front end reads.

These guards keep it that way: each row binds to its function at both
scales, owns a committed baseline and (if deterministic) a golden, and
reproduces that golden byte for byte.
"""

import inspect
import json
from pathlib import Path

import pytest

from repro.bench import rows_to_json
from repro.bench.registry import BY_NAME, DETERMINISTIC, EXPERIMENTS

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"


def test_names_are_unique():
    assert len(BY_NAME) == len(EXPERIMENTS)


@pytest.mark.parametrize("exp", EXPERIMENTS, ids=lambda exp: exp.name)
def test_row_is_complete(exp):
    signature = inspect.signature(exp.func)
    signature.bind(**exp.quick)
    signature.bind(**exp.full)
    baseline = BENCHMARKS / "baselines" / f"BENCH_{exp.name}.json"
    assert json.loads(baseline.read_text())["title"] == exp.title
    golden = BENCHMARKS / "golden" / f"{exp.name}_quick.json"
    assert golden.exists() == exp.deterministic


@pytest.mark.parametrize("exp", DETERMINISTIC, ids=lambda exp: exp.name)
def test_quick_rows_match_golden(exp):
    # What ``python -m repro experiment <name> --quick --json`` prints.
    rows = exp.run(quick=True)
    exp.check(rows)
    golden = BENCHMARKS / "golden" / f"{exp.name}_quick.json"
    assert rows_to_json(exp.title, rows) + "\n" == golden.read_text()
