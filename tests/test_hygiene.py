"""Source hygiene checked with the standard library alone: every name a
library module imports is used in that module, and every private
module-level function or class is used somewhere in the package, so deleting
a route cannot leave dead imports or helpers behind.  Only the public entry
points call the checking constructors, so no rule is checked twice."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "treeca"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _names_used(node: ast.AST) -> set[str]:
    """Names read under node, bare or as an attribute of something."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_private_helper_is_used():
    # A definition's own body does not count as a use, so a helper that only
    # calls itself is still reported.
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(stmt, "name", "")
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and (
                name.startswith("_") and not name.startswith("__")
            ):
                defined[name] = path.name
                used |= _names_used(stmt) - {name}
            else:
                used |= _names_used(stmt)
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert not unused, f"private helpers nothing in the package uses: {unused}"


# Inside the package, automata are built unchecked through Bta._of from fields
# already checked; only these scopes call the public, checking constructors.
PUBLIC_BUILDERS = {"Tta.__init__", "tta_determinize_direct"}


def _public_builds(node: ast.AST, scope: tuple[str, ...] = ()):
    """The scopes (dotted class and function names) of the Bta(...) and
    Tta(...) calls under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _public_builds(child, scope + (child.name,))
            continue
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id in ("Bta", "Tta")
        ):
            yield ".".join(scope) or "<module>"
        yield from _public_builds(child, scope)


def test_only_the_public_entry_points_call_the_checking_constructors():
    callers = {
        f"{path.name}:{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope in _public_builds(ast.parse(path.read_text(encoding="utf-8")))
        if scope not in PUBLIC_BUILDERS
    }
    assert not callers, f"library code revalidating through Bta(...)/Tta(...): {sorted(callers)}"
