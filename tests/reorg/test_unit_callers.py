"""Each pass has one loop: passes 1 and 2 drive units, pass 3 its steps.

Outside the unit engine, only the reorganizer's protocols (the generators
the synchronous passes drive too), the parallel workers and the [Smi90]
baseline call the engine's unit entry points; outside the modules that
define them, only the protocols name the section 7 step bodies; and no
reorganizer module walks the leaves in key order where the tree's leaf
cursor serves.  A second loop running units, a second ordering of pass 3
and the switch, or a second way to find a neighbouring leaf cannot grow
back unseen.
"""

import ast
from pathlib import Path

from repro.reorg.unit import UnitEngine

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

ALLOWED = {"reorg/unit.py", "reorg/protocols.py", "reorg/parallel.py", "baseline/smith90.py"}

ENTRY_POINTS = {
    name
    for name in vars(UnitEngine)
    if name.startswith(("compact_unit", "move_unit", "swap_unit", "begin_", "complete_"))
}


def entry_point_calls():
    """(module path under src/repro, line) of every call to an entry point."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ENTRY_POINTS
            ):
                yield path.relative_to(SRC).as_posix(), node.lineno


def test_only_the_protocols_and_the_baseline_drive_units():
    assert {"compact_unit", "move_unit", "swap_unit", "begin_compact",
            "complete_compact", "begin_swap", "complete_swap"} <= ENTRY_POINTS
    calls = list(entry_point_calls())
    strays = [f"{module}:{line}" for module, line in calls if module not in ALLOWED]
    assert not strays, f"unit entry points called outside the one unit loop: {strays}"
    assert {"reorg/protocols.py", "baseline/smith90.py"} <= {module for module, _ in calls}


#: The section 7 step bodies of TreeShrinker and Switcher.
STEPS = {
    "begin_scan", "scan_base", "stable_point", "build_upper",
    "apply_side_file_once", "caught_up", "final_catch_up", "log_switch",
    "flip_root", "discard_old", "finish",
}

STEP_OWNERS = {"reorg/shrink.py", "reorg/switch.py"}


def step_references():
    """(module path under src/repro, line, name) of every attribute named
    like a step, called or handed to a ``Call`` op."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in STEPS:
                yield path.relative_to(SRC).as_posix(), node.lineno, node.attr


def test_only_the_protocols_order_the_section_7_steps():
    from repro.reorg.shrink import TreeShrinker
    from repro.reorg.switch import Switcher

    assert STEPS <= set(vars(TreeShrinker)) | set(vars(Switcher))
    refs = list(step_references())
    strays = [
        f"{module}:{line} .{name}"
        for module, line, name in refs
        if module not in STEP_OWNERS | {"reorg/protocols.py"}
    ]
    assert not strays, f"section 7 steps ordered outside the protocols: {strays}"
    assert STEPS <= {name for module, _, name in refs if module == "reorg/protocols.py"}


class _KeyOrderWalks(ast.NodeVisitor):
    """Collects the ``Class.function`` scope of every reference to
    ``leaf_ids_in_key_order``."""

    def __init__(self):
        self.scope, self.found = [], []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Attribute(self, node):
        if node.attr == "leaf_ids_in_key_order":
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_the_reorganizer_steps_the_leaf_cursor_instead_of_walking():
    """Pass 2's planners and the side-pointer fix-up find neighbouring
    leaves by the tree's leaf cursor; no key-order walk is left under the
    reorganizer."""
    found = []
    for package in ("reorg", "baseline"):
        for path in sorted((SRC / package).rglob("*.py")):
            visitor = _KeyOrderWalks()
            visitor.visit(ast.parse(path.read_text(), filename=str(path)))
            found += [f"{path.relative_to(SRC).as_posix()}:{scope}" for scope in visitor.found]
    assert found == []
