"""Every name a module of the library imports is read in that module.

An import that nothing reads is dead weight, and no linter is a dependency
of the project: this scan of the sources (no import) fails on one.  A name
counts as read when the module loads it anywhere, a function body included.
``__init__.py`` imports to re-export, and ``from __future__ import
annotations`` binds no name, so both are left out.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "infocost"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement of the module binds -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update({(a.asname or a.name): node.lineno for a in node.names})
    return names


def _read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_imported_name_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read(tree)
        unread += [f"{path.name}:{line} {name}" for name, line in _imported(tree).items() if name not in read]
    assert not unread, f"imported names that their module never reads: {sorted(unread)}"
