"""No library function has only test callers: every def and class of the package is
referenced by library code or exported from ``__init__``.

The scan is syntactic.  A reference is a name (``f``) or an attribute (``x.f``) in any
module of the package, outside the body of the definition itself; names are matched,
so a reference counts for every def or class of that name.  A method is referenced only
by attribute (``x.f``): a local variable of the same name does not count for it.  An
export is a name that ``__init__`` imports.  Dunder methods, which Python calls by
protocol, are not scanned.  The same scan pins the one caller of the propagator.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cohentropy"

# perfbench/child.py builds each workload's config from its JSON text through this
# function; no library code calls it.
ALLOWED = {("scenarios", "config_from_json")}


def _references(node: ast.AST, attributes_only: bool = False) -> Counter:
    """How often each name is referenced under ``node``, as a name or an attribute, or as
    an attribute only."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, kinds)
    )


def _methods(tree: ast.AST) -> set[ast.FunctionDef]:
    """The defs of the class bodies under ``tree``."""
    return {
        item
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    }


def unreferenced() -> set[tuple[str, str]]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    by_attribute = set().union(*(_methods(tree) for tree in trees.values()))
    totals = {
        kind: sum((_references(tree, kind) for tree in trees.values()), Counter())
        for kind in (False, True)
    }
    return {
        (module, node.name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in exported
        and totals[node in by_attribute][node.name]
        == _references(node, node in by_attribute)[node.name]
    }


def test_every_def_has_a_library_caller():
    assert unreferenced() == ALLOWED


def callers(name: str) -> set[tuple[str, str]]:
    """(module, def) of every function of the package under which ``name`` is called, as a
    name (``f(...)``) or an attribute (``x.f(...)``); a call in a nested def counts for the
    enclosing defs too."""
    return {
        (path.stem, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(sub, ast.Call)
            and getattr(sub.func, "id", getattr(sub.func, "attr", None)) == name
            for sub in ast.walk(node)
        )
    }


def test_one_consumer_of_the_propagator():
    """Every finite-time state comes from ``labeled_trajectory``: it is the only caller of
    ``LindbladGenerator.labeled_propagate``, so every propagated state gets its checks."""
    assert callers("labeled_propagate") == {("lindblad", "labeled_trajectory")}
