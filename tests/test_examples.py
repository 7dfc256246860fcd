"""Every script under ``examples/`` must actually run.

The examples double as documentation; a stale import or API drift in
one of them is a user-facing bug even when the library tests pass.
Each script is executed in-process with :func:`runpy.run_path` under
``__name__ == "__main__"``, exactly as ``python examples/<name>.py``
would, with stdout captured so a run stays quiet unless it fails.
"""

import io
import re
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 5


def run_example(path):
    """(stdout, module namespace) of one run of the script at ``path``."""
    captured = io.StringIO()
    with redirect_stdout(captured):
        namespace = runpy.run_path(str(path), run_name="__main__")
    return captured.getvalue(), namespace


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path):
    output, namespace = run_example(path)
    # Each example prints a report and documents itself.
    assert output.strip(), f"{path.name} printed nothing"
    assert namespace.get("__doc__"), f"{path.name} has no docstring"


def test_dispatch_paths_offsets_fall_inside_each_read():
    # Each path prints "(T us total" and then one "t+ X us" line per I/O:
    # X counts from the lookup's start, so no I/O is submitted after the
    # read it belongs to has ended.
    output, _ = run_example(EXAMPLES_DIR / "dispatch_paths.py")
    totals = 0
    offsets = []
    for line in output.splitlines():
        total = re.search(r"\(([\d.]+) us total", line)
        if total:
            totals += 1
            limit = float(total.group(1))
        offset = re.match(r"\s+t\+\s*([\d.]+)us", line)
        if offset:
            offsets.append(float(offset.group(1)))
            assert 0 <= offsets[-1] <= limit, line
    assert (totals, len(offsets)) == (3, 12)
