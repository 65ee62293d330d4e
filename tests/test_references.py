"""Every module-level function and class of the package is used somewhere.

A definition counts as used when its name appears outside its own body in
the package, the benchmarks, the scripts or the README; tests do not count,
so a helper that only its own test calls fails here.  In Python files a use
is a name, an attribute, an import or a word inside a string (the span
tracer looks functions up by name); docstrings and comments mention names
without using them.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _references(node):
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield from node.name.split(".")
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield from re.findall(r"\w+", node.value)
    for child in ast.iter_child_nodes(node):
        yield from _references(child)


def unreferenced(root: Path) -> list[str]:
    """``module.name`` of each package definition that nothing else uses."""
    package = sorted((root / "src" / "ghzverify").glob("*.py"))
    users = package + sorted((root / "benchmarks").glob("*.py"))
    users += sorted((root / "scripts").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in users}
    uses = Counter(name for tree in trees.values() for name in _references(tree))
    readme = set(re.findall(r"\w+", (root / "README.md").read_text()))
    found = []
    for path in package:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = Counter(_references(node))
            if node.name not in readme and uses[node.name] == own[node.name]:
                found.append(f"{path.stem}.{node.name}")
    return found


def test_every_module_level_definition_is_referenced():
    assert unreferenced(ROOT) == []
