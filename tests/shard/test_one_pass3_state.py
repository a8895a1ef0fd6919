"""Pass-3 state lives in one place: the database's per-tree map.

``repro/db.py`` is the only module that constructs a ``Pass3State``; shard
handles, the sharded facade and recovery read or fill the database's
entries.  The names of the retired per-shard copy (``shard_pass3``,
``sidefile_name``) and of the global checkpoint field (``pass3_built``)
appear nowhere under ``src/`` — not as a name, an attribute, an argument
or a string.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
RETIRED = {"shard_pass3", "sidefile_name", "pass3_built"}


def modules():
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        yield name, ast.parse(path.read_text(), filename=str(path))


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            yield node.arg
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.replace(".", " ").split()


def test_only_db_constructs_pass3_state():
    constructing = sorted(
        module
        for module, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "Pass3State"
    )
    assert set(constructing) == {"db"}


def test_no_retired_pass3_names_under_src():
    named = sorted(
        (module, name)
        for module, tree in modules()
        for name in _names(tree)
        if name in RETIRED
    )
    assert named == []
