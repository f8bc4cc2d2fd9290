"""Every top-level import in the package is read somewhere in its module,
and so is every private top-level function, class and constant."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import thermark

PACKAGE = Path(thermark.__file__).parent


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
