"""No module imports a name it never reads: the repository's unused-import check.

Every ``.py`` file under ``src/cyclelab``, ``tests`` and ``scripts`` is
parsed with ``ast``.  A name an import binds (its ``as`` name, or the first
part of a dotted ``import a.b``) must be read somewhere in the module as a
plain name.  ``from __future__`` imports and star imports bind nothing to
read.  A package's ``__init__.py`` is left out: what it imports is what it
exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src/cyclelab", "tests", "scripts")


def imported_names(tree: ast.Module):
    """(name, line) for every name an import in tree binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) for every name source imports and never reads."""
    tree = ast.parse(source)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(name, line) for name, line in imported_names(tree) if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    paths = [
        path for folder in CHECKED for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert len(paths) > 30
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths for name, line in unused_imports(path.read_text())
    ]
    assert unused == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from dataclasses import dataclass, field as f\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int = sys.maxsize\n"
    )
    assert unused_imports(source) == [("os", 2), ("f", 4)]
