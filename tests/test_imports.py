"""Every name a ``casplit`` module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import casplit

MODULES = sorted(Path(casplit.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by import but never reads; a name listed
    in ``__all__`` counts as read, and ``__future__`` imports are left out."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from itertools import accumulate, repeat\n"
              "from casplit.core import check_kind\n"
              "__all__ = ['check_kind']\n"
              "x = list(accumulate(np.arange(3)))\n")
    assert unused_imports(source) == ["os", "repeat"]
