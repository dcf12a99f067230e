"""Checks on the package source itself, read as syntax trees."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sensecomm"
PROGRAM = (ROOT / "src", ROOT / "perfbench")


def names_in(node: ast.AST) -> Counter:
    """Every name ``node`` mentions: as a variable, an attribute, an
    imported name, or a string such as a patch target's."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def test_every_package_definition_is_used_by_the_program():
    """Each module-level function and class of the package is named in
    ``src/`` or ``perfbench/`` outside its own definition: code that only
    tests use belongs with the tests."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for directory in PROGRAM for path in sorted(directory.rglob("*.py"))}
    used = sum((names_in(tree) for tree in trees.values()), Counter())
    unused = [f"{path.relative_to(ROOT)}: {node.name}"
              for path, tree in trees.items() if path.is_relative_to(PACKAGE)
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and used[node.name] <= names_in(node)[node.name]]
    assert unused == []
