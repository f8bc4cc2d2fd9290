"""Every top-level import in the package is read somewhere in its module."""

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


def test_scanner_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from itertools import repeat, chain\nimport a.b\n"
              "__all__ = ['chain']\nx: np.ndarray = a.b\n")
    assert unused_imports(source) == ["line 2: os", "line 4: repeat"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_top_level_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
