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


def definitions(tree: ast.Module):
    """The module's top-level functions, classes and assigned names, and
    the methods of its classes, each with the node that defines it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for sub in (sub for t in targets for sub in ast.walk(t)):
                if isinstance(sub, ast.Name):
                    yield sub.id, node


def test_every_package_definition_is_used_by_the_program():
    """Each module-level function, class and assigned name of the package,
    and each method of its classes other than a dunder, is named in
    ``src/`` or ``perfbench/`` outside its own definition: code that only
    tests use belongs with the tests."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for directory in PROGRAM for path in sorted(directory.rglob("*.py"))}
    used = sum((names_in(tree) for tree in trees.values()), Counter())
    unused = [f"{path.relative_to(ROOT)}: {name}"
              for path, tree in trees.items() if path.is_relative_to(PACKAGE)
              for name, node in definitions(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and used[name] <= names_in(node)[name]]
    assert unused == []


def test_only_in_threads_starts_threads():
    """``models.in_threads`` is the package's one fan-out: no other code
    of it names a thread, a thread or process pool, or ``fork``."""
    words = {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor",
             "multiprocessing", "fork"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = names_in(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "in_threads":
                named -= names_in(node)
        found += [f"{path.relative_to(ROOT)}: {word}" for word in sorted(words)
                  if named[word]]
    assert found == []
