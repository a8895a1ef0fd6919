"""The synchronous scans walk the leaf cursor; only the DES scans step
leaf by leaf.

``BPlusTree.successor_leaf_id`` finds one successor by a root-to-leaf
descent when the tree keeps no side pointers.  The DES scans need it: they
re-find their place after every yield.  Anywhere else a loop over it is a
descent per leaf, the cost ``leaf_ids_from`` removed from ``range_scan``
and ``items()``, so it keeps exactly one caller.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class _References(ast.NodeVisitor):
    """Dotted ``module.function`` of every reference to one attribute."""

    def __init__(self, scope: str, attr: str):
        self.scope = [scope]
        self.attr = attr
        self.found: list[str] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if node.attr == self.attr:
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def references(attr):
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        visitor = _References(module, attr)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found.extend(visitor.found)
    return found


def test_successor_leaf_id_has_one_caller():
    assert references("successor_leaf_id") == ["btree.protocols._successor_leaf"]
