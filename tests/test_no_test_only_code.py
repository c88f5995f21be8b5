"""Every definition in the package has a caller in the package.

Each top-level function and class of `src/birevnf`, and each non-dunder
method and property, must be named somewhere in the package outside its
own definition, as a name, an attribute or an import, or be a layer that
the benchmark's tracer times (`SPANS` in `perfbench/tracer.py`).  The
re-exports of `__init__.py` do not count: a name that only they reach has
no caller.  A definition that only tests call belongs in the tests.  The
names below have no caller in the package on purpose.  This test only
reads `perfbench/`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "birevnf"
TRACER = ROOT / "perfbench" / "tracer.py"

ALLOWED = {
    "reynolds_R": "public API for library users: the invariant projection of the paper",
    "reynolds_S": "public API for library users: the odd projection of the paper",
    "catalog": "public API for library users: closure data of a named case",
    "parse_polymap": "public API for library users: reads back a rendered map",
}


def _definitions(tree: ast.Module):
    """(name, node) of each top-level def and class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item


def _references(tree: ast.AST) -> Counter:
    """How often each name is used as a Name, an Attribute or an import alias."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
            if node.asname:
                found[node.asname] += 1
    return found


def _traced_names() -> set:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            spans = ast.literal_eval(node.value)
            return {part for _module, path in spans.values() for part in path.split(".")}
    raise AssertionError("perfbench/tracer.py defines no SPANS")


def unused_definitions() -> set:
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    callers = (tree for name, tree in trees.items() if name != "__init__.py")
    everywhere = sum(map(_references, callers), Counter())
    traced = _traced_names()
    return {
        name
        for tree in trees.values()
        for name, node in _definitions(tree)
        # a use inside the definition itself (recursion) is no caller
        if name not in traced and everywhere[name] == _references(node)[name]
    }


def test_every_definition_has_a_caller_in_the_package():
    assert unused_definitions() == set(ALLOWED)
