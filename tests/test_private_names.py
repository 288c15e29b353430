"""Every private module-level name of the library is read somewhere in it.

A private helper that nothing reads is dead code: this scan of the sources
(no import) fails on one.  A name counts as read when its module loads it
outside its own definition, when another module imports it and loads it,
or when any module reads an attribute of that name (``module._name``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "infocost"


def _bound(stmt: ast.stmt) -> list[str]:
    """The module-level names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_private_module_level_name_is_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    defined = {(module, name) for module, tree in trees.items() for stmt in tree.body for name in _bound(stmt)}
    read, attributes = set(), set()
    for module, tree in trees.items():
        imported = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
        }
        for stmt in tree.body:
            own = set(_bound(stmt))  # a definition reading itself (recursion) is no use
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
                    read.add(imported.get(node.id, (module, node.id)))
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    unread = sorted(
        f"{module}.{name}"
        for module, name in defined
        if _private(name) and (module, name) not in read and name not in attributes
    )
    assert not unread, f"private names that nothing in src/infocost reads: {unread}"
