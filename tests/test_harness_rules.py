"""The axiom harness derives and prices plain matrices.

A check derives and prices thousands of matrices per run, all drawn and
validated by the harness itself, and pricing reads only their arrays.  So
``axioms._build``, ``_derived``, ``_price`` and ``check_axiom`` pass
``[n, s]`` arrays, derived by the matrix code that the experiment module's
combinators call (``experiment._mixed`` and ``experiment._product``), and
build no experiment only to unwrap it again.  Only ``reevaluate_witness``
builds experiments, since a witness is outside input.  This scan of the
source (no code runs) fails when one of those four functions names an
experiment constructor or a public combinator, called or passed on.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "infocost" / "axioms.py"

HARNESS = {"_build", "_derived", "_price", "check_axiom"}
BUILDERS = {"FiniteExperiment", "mixture", "product", "power", "dilute", "garble", "new_experiment"}


def _builders(tree: ast.Module) -> tuple[set, list[tuple[int, str]]]:
    """The harness functions defined at module level, and (line, builder) for
    each builder named inside them, annotations included: as a bare name, an
    attribute (``experiment.mixture``) or an import alias."""
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    harness = [node for node in tree.body if getattr(node, "name", None) in HARNESS]
    found = []
    for node in (part for definition in harness for part in ast.walk(definition)):
        name = aliases.get(node.id, node.id) if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in BUILDERS:
            found.append((node.lineno, name))
    return {node.name for node in harness}, sorted(found)


def test_the_harness_builds_no_experiment():
    defined, found = _builders(ast.parse(SOURCE.read_text(encoding="utf-8")))
    assert defined == HARNESS, f"the scan misses {sorted(HARNESS - defined)}"
    assert not found, f"derive plain matrices with experiment._mixed and experiment._product instead: {found}"


def test_the_scan_sees_every_spelling():
    tree = ast.parse(
        "from .experiment import mixture as mix, new_experiment\n"
        "from . import experiment\n"
        "def _build(stack):\n"
        "    return [FiniteExperiment(m) for m in stack]\n"
        "def _derived(a, mu: FiniteExperiment):\n"
        "    return mix(mu, mu, a), experiment.product(mu, mu), ic.power(mu, 2)\n"
        "def _price(spec, mats):\n"
        "    return list(map(dilute, mats)), garble(mats[0], k), new_experiment(mats[1])\n"
        "def check_axiom(spec, mu):\n"
        "    return _product(mu, mu), _mixed(mu, mu, 0.5)\n"
        "def reevaluate_witness(witness):\n"
        "    return new_experiment(witness)\n"
    )
    assert _builders(tree) == (
        HARNESS,
        [
            (4, "FiniteExperiment"),
            (5, "FiniteExperiment"),
            (6, "mixture"),
            (6, "power"),
            (6, "product"),
            (8, "dilute"),
            (8, "garble"),
            (8, "new_experiment"),
        ],
    )
