"""The divergence kernel forms no matrix product, and no other module
reaches into it.

A product of a weight vector with a block of logs rounds by the layout of
its operands: the same matrix, alone, in a stack or in a ragged segment,
came out otherwise in the last bit.  The kernel therefore adds its
log-ratio terms elementwise, state by state (``divergence._log_ratios``).
This scan of the source (no code runs) fails when the kernel's functions
use ``@`` or a NumPy product routine, so a layout-dependent product cannot
come back unnoticed.

Each divergence branch is priced, and differentiated, in ``divergence.py``
alone: other modules go through ``_Plan``, ``_divergences`` and
``_gradients``.  A second scan fails when any other module of the library
imports or reads the kernel's inner steps (``INTERNALS``), which is how a
branch's rule came to be written twice.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "infocost" / "divergence.py"

SRC = SOURCE.parent

KERNEL = {"_Cuts", "_log_ratios", "_log_sums", "_Plan", "_divergences", "_gradients"}
PRODUCTS = {"matmul", "dot", "einsum", "tensordot"}


def _products(tree: ast.Module) -> tuple[set, list[tuple[int, str]]]:
    """The kernel names defined at module level, and (line, spelling) for
    each matrix product inside them: ``@``, ``@=`` or a call of a product
    routine as an attribute (``np.dot``, ``x.dot``) or a bare name."""
    kernel = [node for node in tree.body if getattr(node, "name", None) in KERNEL]
    found = []
    for node in (part for definition in kernel for part in ast.walk(definition)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in PRODUCTS:
                found.append((node.lineno, name))
    return {node.name for node in kernel}, sorted(found)


def test_the_kernel_forms_no_matrix_product():
    defined, found = _products(ast.parse(SOURCE.read_text(encoding="utf-8")))
    assert defined == KERNEL, f"the scan misses {sorted(KERNEL - defined)}"
    assert not found, f"add the terms elementwise instead: {found}"


def test_the_scan_sees_every_spelling():
    tree = ast.parse(
        "def _log_ratios(w, x):\n"
        "    a = w @ x\n"
        "    a @= x\n"
        "    np.einsum('i,i', w, x)\n"
        "    return x.dot(w)\n"
        "class _Plan:\n"
        "    def f(self):\n"
        "        return numpy.tensordot(self, self), matmul(self, self)\n"
        "def elsewhere(w, x):\n"
        "    return w @ x\n"
    )
    assert _products(tree) == (
        {"_log_ratios", "_Plan"},
        [(2, "@"), (3, "@"), (4, "einsum"), (5, "dot"), (8, "matmul"), (8, "tensordot")],
    )


INTERNALS = {"_Cuts", "_log_ratios", "_log_sums", "_interior_denominator"}


def _internal_uses(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each import of a kernel internal, under any alias,
    and each attribute read of one (``divergence._log_ratios``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(alias.lineno, alias.name) for alias in node.names if alias.name in INTERNALS]
        elif isinstance(node, ast.Attribute) and node.attr in INTERNALS:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_no_other_module_reaches_into_the_kernel():
    found = {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if path != SOURCE and (uses := _internal_uses(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert not found, f"price and differentiate through _Plan, _divergences and _gradients instead: {found}"


def test_the_boundary_scan_sees_every_spelling():
    tree = ast.parse(
        "from .divergence import _Cuts, _Plan\n"
        "from .divergence import (\n"
        "    _log_ratios as ratios,\n"
        ")\n"
        "from . import divergence\n"
        "import infocost.divergence as d\n"
        "def f(p):\n"
        "    return divergence._log_sums(p), d._interior_denominator([p]), d._divergences\n"
    )
    assert _internal_uses(tree) == [(1, "_Cuts"), (3, "_log_ratios"), (8, "_interior_denominator"), (8, "_log_sums")]
