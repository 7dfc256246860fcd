"""Documentation guards: the README's code must actually run, and the
documented repo structure must exist."""

import argparse
import importlib
import re
from pathlib import Path

from repro.bench.registry import BY_NAME, EXPERIMENTS
from repro.cli import build_parser

REPO = Path(__file__).parent.parent


def test_readme_quickstart_snippet_executes():
    readme = (REPO / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert blocks, "README lost its quickstart snippet"
    namespace = {}
    exec(compile(blocks[0], "<README quickstart>", "exec"), namespace)
    result = namespace["result"]
    assert result.value == 12340


def test_documented_benchmarks_exist():
    # Every ``python -m repro WORD`` (and ``... experiment|metrics|profile
    # WORD``) the docs cite names a subcommand or a row of the table.
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    stale = []
    for doc in _REFERENCE_DOCS:
        for first, second in re.findall(
                r"python -m repro ([a-z][\w-]*)(?: ([a-z][\w-]*))?",
                doc.read_text()):
            if first not in commands and first not in BY_NAME:
                stale.append(f"{doc.name}: {first}")
            if first in ("experiment", "metrics", "profile") and second \
                    and second not in BY_NAME:
                stale.append(f"{doc.name}: {first} {second}")
    assert not stale, stale


def test_every_benchmark_is_indexed_in_design():
    design = (REPO / "DESIGN.md").read_text()
    experiments = (REPO / "EXPERIMENTS.md").read_text()
    for exp in EXPERIMENTS:
        assert f"`python -m repro {exp.name}`" in design, \
            f"{exp.name} missing from DESIGN.md"
        assert f"python -m repro {exp.name}" in experiments, \
            f"{exp.name} missing from EXPERIMENTS.md"


def test_examples_documented_in_readme_exist():
    for path in (REPO / "examples").glob("*.py"):
        assert path.stat().st_size > 0
    names = {path.name for path in (REPO / "examples").glob("*.py")}
    assert "quickstart.py" in names
    assert len(names) >= 5


def test_experiments_doc_mentions_every_figure():
    experiments = (REPO / "EXPERIMENTS.md").read_text()
    for item in ("Figure 1", "Table 1", "Figure 3a", "Figure 3b",
                 "Figure 3c", "Figure 3d", "extent stability"):
        assert item.lower() in experiments.lower(), item


def test_all_public_modules_have_docstrings():
    import importlib
    import pkgutil

    import repro

    missing = []
    for module_info in pkgutil.walk_packages(repro.__path__,
                                             prefix="repro."):
        module = importlib.import_module(module_info.name)
        if not (module.__doc__ or "").strip():
            missing.append(module_info.name)
    assert not missing, f"modules without docstrings: {missing}"


#: Hand-written docs whose back-quoted references must stay live.
_REFERENCE_DOCS = [REPO / name for name in ("README.md", "DESIGN.md",
                                            "EXPERIMENTS.md", "PAPER.md")]
_REFERENCE_DOCS += sorted((REPO / "docs").glob("*.md"))
_PATH_ROOTS = ("src/", "tests/", "benchmarks/", "scripts/", "examples/",
               "docs/", "bench_e2e/")


def _resolves(dotted):
    """``repro.a.b.c`` names a module, or an attribute chain off one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def test_docs_name_only_modules_and_files_that_exist():
    """A doc citing a deleted module or file fails here, not in review.

    Two rules over every back-quoted span: a ``repro.<dotted.name>``
    must resolve by import + getattr, and a literal path under one of
    the repo's top-level directories must exist (spans holding a
    placeholder or glob character are patterns, not paths)."""
    stale = []
    for doc in _REFERENCE_DOCS:
        for span in re.findall(r"`([^`\n]+)`", doc.read_text()):
            dotted = re.match(r"repro(\.[A-Za-z_]\w*)+", span)
            if dotted and not _resolves(dotted.group(0)):
                stale.append(f"{doc.name}: {span}")
            if span.startswith(_PATH_ROOTS) and \
                    re.fullmatch(r"[\w./-]+(::\w+)?", span):
                if not (REPO / span.partition("::")[0]).exists():
                    stale.append(f"{doc.name}: {span}")
    assert not stale, stale
