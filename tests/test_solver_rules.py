"""The solver reads only the plan's facts.

A cost's plan prices values and gradients, and the solver reaches those
through ``cost._costs`` and ``cost._cost_gradient`` alone; from the plan
itself it reads only the facts ``n_states``, ``prior``, ``concave`` and
``mutual_information``.  So no solver path prices through a second, private
route into the plan.  This scan of ``ri_solver.py`` (no code runs) fails
when the module reads a ``_plan`` attribute, or reads any other attribute
of a ``_plan_of(...)`` result: on the call itself, on a name bound to it or
through ``getattr``.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "infocost" / "ri_solver.py"

FACTS = {"n_states", "prior", "concave", "mutual_information"}


def _plan_reads(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, attribute) for each ``._plan`` read, and each attribute other
    than ``FACTS`` read off a ``_plan_of`` call (under any import alias) or a
    name bound to one."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "_plan_of"
    } | {"_plan_of"}

    def is_plan_of(node) -> bool:
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and (getattr(func, "id", None) in aliases or getattr(func, "attr", None) == "_plan_of")

    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) and is_plan_of(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}

    def is_plan(node) -> bool:
        node = node.value if isinstance(node, ast.NamedExpr) else node
        return is_plan_of(node) or isinstance(node, ast.Name) and node.id in names

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (node.attr == "_plan" or is_plan(node.value) and node.attr not in FACTS):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr" and is_plan(node.args[0]):
            attr = getattr(node.args[1], "value", None) if len(node.args) > 1 else None
            if attr not in FACTS:
                found.append((node.lineno, str(attr)))
    return sorted(found)


def test_the_solver_reads_only_the_plans_facts():
    found = _plan_reads(ast.parse(SOURCE.read_text(encoding="utf-8")))
    assert not found, f"price through _costs and _cost_gradient instead: {found}"


def test_the_scan_sees_every_spelling():
    tree = ast.parse(
        "from .cost import _plan_of as plan_of\n"
        "def solve(problem, spec):\n"
        "    plan = plan_of(spec)\n"
        "    if plan.concave and plan.n_states == 2 and plan.prior is None:\n"
        "        return spec._plan.values(p)\n"
        "    rows = plan.bounding(p), cost._plan_of(spec).gradient(p)\n"
        "    if (other := _plan_of(spec)).sup:\n"
        "        return getattr(plan, 'atoms'), getattr(other, 'prior')\n"
        "    if plan.mutual_information or getattr(other, 'mutual_information'):\n"
        "        return plan.transform, _plan_of(spec).potential\n"
    )
    assert _plan_reads(tree) == [
        (5, "_plan"), (6, "bounding"), (6, "gradient"), (7, "sup"), (8, "atoms"), (10, "potential"), (10, "transform"),
    ]
