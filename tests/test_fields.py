"""No record carries a field nobody reads: every field of a package dataclass or
NamedTuple is read in library code or in ``scripts/``.

The scan is syntactic.  A field is read by attribute (``x.f``, loaded) or by name (a
string constant equal to ``f``, as the summaries' ``getattr`` keys are), in any module of
the package or any script; names are matched, so a read counts for every field of that
name.  A field is an annotated name in the body of a class decorated with ``dataclass``
or derived from ``NamedTuple``; ``ClassVar`` annotations are not fields.

A plain record is a ``NamedTuple``: a class is a ``dataclass`` only where it validates
(``__post_init__``) or caches (a ``cached_property``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cohentropy"

# Fields that only tests read, each with the reason it stays.
ALLOWED = {
    # the exactly-degenerate twin and the clustered generator of the near-degenerate
    # scenario: the blocked-generator tests check both against the dense superoperator
    ("scenarios", "NearDegenerateScenario", "gen_exact"),
    ("scenarios", "NearDegenerateScenario", "gen_clustered"),
    # the witness's checked unitary: the tests re-measure its row from it and compare it
    # with the seed's draw
    ("thermalops", "DivergenceWitness", "unitary"),
    # the columns behind check (ii); the tests compare them bitwise with the per-entry
    # reference
    ("thermo", "ComplementarityReport", "backtrack"),
    ("thermo", "ComplementarityReport", "energy_identity_residual"),
}


def _decorated(node: ast.ClassDef | ast.FunctionDef, name: str) -> bool:
    """Whether ``node`` carries the decorator ``name``, called or not, plain or dotted."""
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if getattr(f, "id", getattr(f, "attr", None)) == name:
            return True
    return False


def _is_record(node: ast.ClassDef) -> bool:
    return _decorated(node, "dataclass") or any(
        getattr(b, "id", None) == "NamedTuple" for b in node.bases
    )


def _classes() -> list[tuple[str, ast.ClassDef]]:
    """(module, class node) of every class of the package."""
    return [
        (path.stem, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    ]


def _fields() -> set[tuple[str, str, str]]:
    """(module, class, field) of every record of the package."""
    return {
        (module, node.name, item.target.id)
        for module, node in _classes()
        if _is_record(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and "ClassVar" not in ast.unparse(item.annotation)
    }


def _reads() -> set[str]:
    """The names read by attribute or by a string constant in the package and scripts."""
    reads = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                reads.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                reads.add(sub.value)
    return reads


def unread() -> set[tuple[str, str, str]]:
    reads = _reads()
    return {field for field in _fields() if field[2] not in reads}


def test_every_field_has_a_reader():
    assert unread() == ALLOWED


def test_dataclasses_validate_or_cache():
    """A plain record is a NamedTuple: a class decorated with ``dataclass`` defines
    ``__post_init__`` or a ``cached_property``."""
    plain = [
        f"{module}.{node.name}"
        for module, node in _classes()
        if _decorated(node, "dataclass")
        and not any(
            isinstance(item, ast.FunctionDef)
            and (item.name == "__post_init__" or _decorated(item, "cached_property"))
            for item in node.body
        )
    ]
    assert plain == []
