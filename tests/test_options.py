"""No knob does nothing: every defaulted parameter of a library function is set
by some call inside the library, so each default is a value some caller varies.

The scan is syntactic.  A call sets a parameter by keyword, by position (after
``self`` for a method called on an instance) or through ``*``/``**`` unpacking;
a call of a class counts for its ``__init__``.  Calls are matched by name, so a
call sets the parameter of every function of that name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cohentropy"

# The console-script entry point calls main() without arguments, so argv is None
# there and sys.argv is read; only tests and embedding callers pass a list.
ALLOWED = {("cli", "main", "argv")}


def _library():
    """(module, callee name, function node, is method) per def, and every call."""
    defs, calls = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        owner[item] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                cls = owner.get(node)
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                name = cls if cls is not None and node.name == "__init__" else node.name
                defs.append((path.stem, name, node, cls is not None and not static))
            elif isinstance(node, ast.Call):
                calls.append(node)
    return defs, calls


def _callee(call: ast.Call) -> str | None:
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    return f.attr if isinstance(f, ast.Attribute) else None


def _defaulted(fn: ast.FunctionDef) -> list[str]:
    a = fn.args
    pos = [p.arg for p in a.posonlyargs + a.args]
    out = pos[len(pos) - len(a.defaults):] if a.defaults else []
    return out + [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _sets(call: ast.Call, fn: ast.FunctionDef, method: bool, name: str) -> bool:
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    positional = [p.arg for p in fn.args.posonlyargs + fn.args.args][int(method):]
    if name not in positional:
        return False
    unpacked = any(isinstance(a, ast.Starred) for a in call.args)
    return unpacked or positional.index(name) < len(call.args)


def unset_defaults() -> list[tuple[str, str, str]]:
    defs, calls = _library()
    by_name: dict[str, list[ast.Call]] = {}
    for call in calls:
        by_name.setdefault(_callee(call), []).append(call)
    return [
        (module, fn.name, param)
        for module, name, fn, method in defs
        for param in _defaulted(fn)
        if not any(_sets(c, fn, method, param) for c in by_name.get(name, []))
    ]


def test_every_default_is_set_by_a_library_call():
    assert set(unset_defaults()) == ALLOWED
