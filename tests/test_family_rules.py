"""Each cost family's rules live in ``cost.py`` alone.

Every cost builds a plan at construction that records its family's facts
(state count, prior, sup atoms, concavity), so no other module needs to tell
the families apart.  This scan of the sources (no code runs) fails when a
module other than ``cost.py`` calls ``isinstance`` with a cost, potential or
transform class, so a ladder over the families cannot creep back.
"""

import ast
from pathlib import Path

from infocost import cost

SRC = Path(__file__).resolve().parents[1] / "src" / "infocost"

FAMILY_CLASSES = {
    cls.__name__
    for cls in [
        *cost.COST_KINDS.values(),
        *cost._NESTED_KINDS["potential"].values(),
        *cost._NESTED_KINDS["transform"].values(),
        cost.CustomPotential,
        cost.CustomTransform,
    ]
}


def _family_checks(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, class) for each family class named in an ``isinstance`` call's
    second argument, as a name, an attribute or a relative import alias."""
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            for part in ast.walk(node.args[1]):
                name = aliases.get(part.id, part.id) if isinstance(part, ast.Name) else getattr(part, "attr", None)
                if name in FAMILY_CLASSES:
                    found.append((node.lineno, name))
    return found


def test_only_cost_py_tells_the_families_apart():
    checks = [
        f"{path.name}:{line} isinstance(..., {name})"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cost.py"
        for line, name in _family_checks(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not checks, f"read the cost's plan instead: {checks}"


def test_the_scan_sees_every_spelling():
    tree = ast.parse(
        "from .cost import KLCost as K\n"
        "isinstance(a, K)\n"
        "isinstance(a, (int, cost.ConvexPSCost))\n"
        "isinstance(a.potential, CustomPotential)\n"
        "isinstance(a, InteriorParam)\n"
    )
    assert _family_checks(tree) == [(2, "KLCost"), (3, "ConvexPSCost"), (4, "CustomPotential")]
