"""Every name a ``stabsparse`` module imports is used in that module.

No linter ships with the project, so this reads each module's syntax tree:
a name counts as used when the code (annotations included, docstrings not)
loads it.  Imports on lines marked ``noqa`` are kept on purpose and
skipped, as are ``from __future__`` imports and the package's
``__init__.py``, whose imports are its exports.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stabsparse"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never loads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa" not in lines[alias.lineno - 1]:
                    # ``import a.b`` binds a
                    imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in loaded]


def test_finds_an_unused_import():
    source = "import math\nimport os  # noqa: F401\nfrom typing import List, Sequence\n" \
             "x: Sequence = [math.pi]\n"
    assert unused_imports(source) == [(3, "List")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
