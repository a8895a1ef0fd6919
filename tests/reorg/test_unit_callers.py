"""Passes 1 and 2 have one loop that drives units.

Outside the unit engine, only the reorganizer's protocols (the generators
the synchronous passes drive too), the parallel workers and the [Smi90]
baseline call the engine's unit entry points, so a second loop running
units cannot grow back unseen.
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
