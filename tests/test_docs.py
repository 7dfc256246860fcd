"""Documentation guards: the README's code must actually run, and the
documented repo structure must exist."""

import re
from pathlib import Path

from repro.bench.registry import BY_NAME, EXPERIMENTS

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
    # Every bench command DESIGN.md cites names a row of the table.
    design = (REPO / "DESIGN.md").read_text()
    cited = re.findall(r"harness\.py --only (\w+)", design)
    assert cited, "DESIGN.md lost its experiment index"
    for name in cited:
        assert name in BY_NAME, name


def test_every_benchmark_is_indexed_in_design():
    design = (REPO / "DESIGN.md").read_text()
    experiments = (REPO / "EXPERIMENTS.md").read_text()
    for exp in EXPERIMENTS:
        assert f"--only {exp.name}`" in design, \
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
