"""Every top-level import in the package is read somewhere in its module,
and so is every private top-level function, class and constant; and every
name the benchmark harness imports from the package is still there."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import thermark
from thermark import parse_occupancy_csv
from thermark.datasets import seven_day_log_csv

PACKAGE = Path(thermark.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def unused_imports(source: str) -> list[str]:
    """Names a module's top-level imports bind that nothing in it reads.

    A name counts as read if it occurs as an identifier anywhere in the
    module, annotations included, or is listed in ``__all__``.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def unread_private_names(source: str) -> list[str]:
    """Private names that a module's top-level functions, classes and
    assignments bind and that nothing in it reads.

    A name is private if it starts with one underscore and is no dunder
    name. It counts as read if it occurs as a loaded identifier anywhere in
    the module, annotations included.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_scanner_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from itertools import repeat, chain\nimport a.b\n"
              "__all__ = ['chain']\nx: np.ndarray = a.b\n")
    assert unused_imports(source) == ["line 2: os", "line 4: repeat"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_top_level_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_scanner_finds_an_unread_private_name():
    source = ("from __future__ import annotations\n_A, _B = 1, 2\n_C: int = _A\n"
              "__all__ = []\nPUBLIC = 3\n\n\nclass _Read:\n    x: _Alias\n\n\n"
              "def _recursive():\n    _local = 1\n    return _recursive() + _local\n\n\n"
              "def public(r: _Read):\n    pass\n\n\nclass _Unread:\n    pass\n\n\n"
              "_Alias = int\n")
    # the scan is by name, so a function that only calls itself counts as read
    assert unread_private_names(source) == ["line 2: _B", "line 3: _C", "line 21: _Unread"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unread_private_name(module):
    assert unread_private_names((PACKAGE / module).read_text()) == []


def package_imports(source: str) -> list[tuple[str, str | None]]:
    """Every (module, name) a source imports from the package, at any depth;
    ``import thermark.x`` gives (``thermark.x``, None)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "thermark" or node.module.startswith("thermark.")):
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.partition(".")[0] == "thermark"]
    return found


def test_scanner_finds_package_imports():
    source = ("import os\nimport thermark.cli\nfrom thermark import cli, analysis as a\n"
              "def f():\n    from thermark.markov import compose\n    from .x import y\n")
    assert package_imports(source) == [
        ("thermark.cli", None), ("thermark", "cli"), ("thermark", "analysis"),
        ("thermark.markov", "compose")]


@pytest.mark.parametrize("harness", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_benchmark_imports_resolve(harness):
    # the benchmark's files are frozen, so a name they import must stay
    missing = []
    for module, name in package_imports((PERFBENCH / harness).read_text()):
        imported = importlib.import_module(module)
        if name is not None and not hasattr(imported, name):
            missing.append(f"{module}.{name}")
    assert missing == []


def test_benchmark_reads_dataset_records():
    # perfbench/tracing.py counts the rows of each parse as len(dataset.records)
    dataset = parse_occupancy_csv(seven_day_log_csv().read_bytes())
    assert len(dataset.records) == dataset.grid.size == 7 * 10
