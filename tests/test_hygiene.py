"""Source hygiene checked with the standard library alone: every name a
library or test module imports is used in that module, every private
module-level function or class is used somewhere in the package, and every
function of tests/helpers.py somewhere in the tests, so deleting a route
cannot leave dead imports or helpers behind.  Every source file parses under
the oldest supported grammar, Python 3.10, starred subscripts included.
Only the public entry points call the checking constructors, so no rule is
checked twice; only minimization determinizes in full, only the numbered
view maps state names to numbers, the low-bit loop that lists a subset's
members from its bitmask is written once, no recursion grows with the
input, each command loads only the modules its verb runs, and the package
exports every public name of its modules without importing them."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeca

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "treeca"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def _names_used(node: ast.AST) -> set[str]:
    """Names read under node, bare or as an attribute of something."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
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


def _unused_definitions(paths: list[Path], checked) -> list[str]:
    """The module-level functions and classes in paths for which
    checked(path, name) holds and that nothing in paths uses.  A
    definition's own body does not count as a use, so a helper that only
    calls itself is still reported."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(stmt, "name", "")
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and checked(path, name):
                defined[name] = path.name
                used |= _names_used(stmt) - {name}
            else:
                used |= _names_used(stmt)
    return sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)


def test_every_private_helper_is_used():
    unused = _unused_definitions(
        sorted(SRC.glob("*.py")),
        lambda path, name: name.startswith("_") and not name.startswith("__"),
    )
    assert not unused, f"private helpers nothing in the package uses: {unused}"


def test_every_test_helper_is_used():
    unused = _unused_definitions(TEST_MODULES, lambda path, name: path.name == "helpers.py")
    assert not unused, f"test helpers no test uses: {unused}"


def _parse_as_3_10(source: str, filename: str = "<probe>") -> ast.Module:
    """source parsed under the Python 3.10 grammar, SyntaxError otherwise.

    On a newer interpreter, ast.parse with feature_version=(3, 10) rejects
    most newer syntax but lets through the starred forms of Python 3.11: a
    starred item in a subscript, x[*a] or x[1, *a], and a starred *args
    annotation, def f(*args: *Ts).  The walk rejects those too, and with
    them the rare x[(1, *a)], which 3.10 reads but which gives the same tree.
    """
    tree = ast.parse(source, filename, feature_version=(3, 10))
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            items = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        elif isinstance(node, ast.arguments) and node.vararg:
            items = [node.vararg.annotation]
        else:
            continue
        for item in items:
            if isinstance(item, ast.Starred):
                where = (filename, item.lineno, item.col_offset + 1, None)
                raise SyntaxError("a starred subscript or *args annotation needs Python 3.11", where)
    return tree


def test_every_source_file_parses_under_the_oldest_supported_grammar():
    # pyproject.toml requires Python 3.10 or newer, and the interpreter that
    # runs the suite may be newer, so the parse names the grammar version.
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 30
    for path in paths:
        _parse_as_3_10(path.read_text(encoding="utf-8"), str(path))


@pytest.mark.parametrize("probe", ["x[*a]", "x[1, *a]", "def f(*args: *Ts): pass"])
def test_the_grammar_guard_rejects_the_starred_forms_of_python_3_11(probe):
    with pytest.raises(SyntaxError):
        _parse_as_3_10(probe)
    _parse_as_3_10(probe.replace("*", ""))  # the same without the star is 3.10


def _calls_by_scope(node: ast.AST, names: set[str], scope: tuple[str, ...] = ()):
    """The scopes (dotted class and function names) of the calls under node
    to a function or method named in names."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _calls_by_scope(child, names, scope + (child.name,))
            continue
        if isinstance(child, ast.Call) and (
            isinstance(child.func, ast.Name)
            and child.func.id in names
            or isinstance(child.func, ast.Attribute)
            and child.func.attr in names
        ):
            yield ".".join(scope) or "<module>"
        yield from _calls_by_scope(child, names, scope)


def _calls_itself(f: ast.FunctionDef) -> bool:
    """f calls its own name, bare or as a method of self or cls."""
    for n in ast.walk(f):
        if not isinstance(n, ast.Call):
            continue
        if isinstance(n.func, ast.Name) and n.func.id == f.name:
            return True
        if (
            isinstance(n.func, ast.Attribute)
            and n.func.attr == f.name
            and isinstance(n.func.value, ast.Name)
            and n.func.value.id in ("self", "cls")
        ):
            return True
    return False


def _self_calls(node: ast.AST, scope: tuple[str, ...] = ()):
    """The dotted names of the functions under node that call themselves."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
            if isinstance(child, ast.FunctionDef) and _calls_itself(child):
                yield ".".join(inner)
            yield from _self_calls(child, inner)


def test_no_function_calls_itself():
    # A recursion as deep as the input reaches the interpreter's limit on
    # large automata and deep terms.
    recursive = {
        f"{path.stem}.{name}"
        for path in MODULES
        for name in _self_calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert not recursive


# Inside the package, automata are built unchecked through Bta._of from fields
# already checked; only these scopes call the public, checking constructors.
PUBLIC_BUILDERS = {"Tta.__init__"}


def test_only_the_public_entry_points_call_the_checking_constructors():
    callers = {
        f"{path.name}:{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope in _calls_by_scope(ast.parse(path.read_text(encoding="utf-8")), {"Bta", "Tta"})
        if scope not in PUBLIC_BUILDERS
    }
    assert not callers, f"library code revalidating through Bta(...)/Tta(...): {sorted(callers)}"


def test_verdicts_determinize_nothing_in_full():
    # Equivalence and path-closedness take the lines of transforms._Subsets
    # for the argument prefixes their product walk reaches; only the
    # minimizers and the minimality check run its discovery loop to the
    # whole table (_Subsets.close).
    full = {"determinize", "subset_construction", "close"}
    callers = {
        f"{name}:{scope}"
        for name in ("minimize.py", "analysis.py")
        for scope in _calls_by_scope(ast.parse((SRC / name).read_text(encoding="utf-8")), full)
    }
    assert callers == {
        "minimize.py:minimize_bta",
        "minimize.py:min_codbta",
        "minimize.py:brzozowski",
        "minimize.py:gen_det_u_witness",
    }


def _index_dicts(tree: ast.AST) -> list[int]:
    """The lines of the dict comprehensions under tree that map items to
    their positions, {q: i for i, q in enumerate(...)}."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.DictComp) or len(node.generators) != 1:
            continue
        gen = node.generators[0]
        if (
            isinstance(gen.iter, ast.Call)
            and isinstance(gen.iter.func, ast.Name)
            and gen.iter.func.id == "enumerate"
            and isinstance(gen.target, ast.Tuple)
            and isinstance(gen.target.elts[0], ast.Name)
            and isinstance(node.value, ast.Name)
            and node.value.id == gen.target.elts[0].id
        ):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", ["minimize.py", "analysis.py"])
def test_minimization_numbers_states_only_in_the_view(name):
    # Refinement, merging and canonical renaming read the numbered view that
    # automata.Bta.numbered builds once, or the subset construction's own
    # numbered tables; none numbers state names again.
    assert _index_dicts(ast.parse((SRC / name).read_text(encoding="utf-8"))) == []
    assert _index_dicts(ast.parse((SRC / "automata.py").read_text(encoding="utf-8")))


def _is_low_bit(node: ast.AST) -> bool:
    """node spells x & -x for one name x."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitAnd)
        and isinstance(node.left, ast.Name)
        and isinstance(node.right, ast.UnaryOp)
        and isinstance(node.right.op, ast.USub)
        and isinstance(node.right.operand, ast.Name)
        and node.left.id == node.right.operand.id
    )


def test_the_rule_mask_step_is_written_once():
    steps = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _is_low_bit(node)
    ]
    assert steps == ["automata.py"]


def _added_modules(statement: str) -> tuple[set[str], str]:
    """The modules a fresh interpreter adds while it runs statement, and the
    last line statement prints."""
    probe = (
        "import runpy, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print()\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        check=True,
    )
    *printed, _, added = proc.stdout.split("\n")[:-1]
    return set(added.split()), printed[-1] if printed else ""


def _command(*argv: str) -> str:
    """A statement that runs `python -m treeca ARGV` and prints its exit status."""
    return (
        f"sys.argv = ['treeca', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('treeca', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(exc.code)"
    )


READ_A_FILE = {"treeca", "treeca.cli", "treeca.errors", "treeca.trees", "treeca.automata",
               "treeca.fileformat"}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Every treeca command first imports treeca.cli, and these two modules
    # would be a large part of that start-up; a fresh interpreter shows what
    # the import itself adds.
    added, _ = _added_modules("import treeca.cli")
    assert not added & {"dataclasses", "inspect"}, sorted(added)
    assert {m for m in added if m.startswith("treeca")} == READ_A_FILE


CONSTRUCTIONS = {"treeca.minimize", "treeca.transforms"}


@pytest.mark.parametrize("argv, code, extra", [
    (["member", "fixtures/bool2.bta", "-t", "and(T,T)"], "0", set()),
    (["determinize", "fixtures/abc.bta"], "0", {"treeca.transforms"}),
    (["determinize", "README.md"], "2", set()),
    (["minimize", "fixtures/abc.bta", "--strip-dead"], "0", {"treeca.minimize"}),
    (["pre", "fixtures/bool2.bta", "-c", "or(T,<>)"], "0", {"treeca.analysis"}),
    (["rtp-equiv", "fixtures/bool2.bta", "-c", "or(T,<>)", "-c", "and(<>,F)"], "1",
     {"treeca.analysis"}),
    (["classes-up", "fixtures/bool2.bta", "--height", "2"], "0", {"treeca.analysis"}),
    (["classes-down", "fixtures/bool2.bta", "--height", "2"], "0", {"treeca.analysis"}),
    (["check-brz-u", "fixtures/bool2.bta", "--witness"], "0", {"treeca.minimize"}),
    (["check-brz-d", "fixtures/and1.bta"], "0", CONSTRUCTIONS),
    (["language-upto", "fixtures/and1.bta", "--height", "3"], "0", {"treeca.oracle"}),
    (["oracle-classes-up", "fixtures/bool2.bta", "--height", "2", "--context-height", "2"], "0",
     {"treeca.oracle"}),
    (["oracle-classes-down", "fixtures/bool2.bta", "--height", "2", "--tree-height", "2"], "0",
     {"treeca.oracle"}),
    (["codeterminize", "fixtures/abc.bta"], "0", {"treeca.transforms"}),
    (["reverse", "fixtures/bool2r.tta"], "0", set()),
    (["complete", "fixtures/and1.bta"], "0", {"treeca.transforms"}),
    (["tdeterminize", "fixtures/bool2r.tta"], "0", {"treeca.transforms"}),
    (["min-codet", "fixtures/and1.bta"], "0", CONSTRUCTIONS),
    (["brzozowski", "fixtures/and1.bta"], "0", CONSTRUCTIONS),
    # Renaming and comparing run no co-determinization or completion.
    (["canonical", "fixtures/bool2.bta"], "0", {"treeca.minimize"}),
    (["equiv", "fixtures/abc.bta", "fixtures/abc_codet.bta"], "0", {"treeca.minimize"}),
    (["isomorphic", "fixtures/abc.bta", "fixtures/abc.bta"], "0", {"treeca.minimize"}),
    (["post", "fixtures/bool2.bta", "-t", "and(T,F)"], "0", set()),
    (["wpre", "fixtures/bool2.bta", "-c", "or(T,<>)"], "0", set()),
    (["is-path-closed", "fixtures/and1.bta"], "0", CONSTRUCTIONS),
    (["enumerate", "fixtures/abc.bta", "--height", "1"], "0", set()),
], ids=["member", "determinize", "determinize-unparsable", "minimize", "pre", "rtp-equiv",
        "classes-up", "classes-down", "check-brz-u", "check-brz-d", "language-upto",
        "oracle-classes-up", "oracle-classes-down", "codeterminize", "reverse", "complete",
        "tdeterminize", "min-codet", "brzozowski", "canonical", "equiv", "isomorphic", "post",
        "wpre", "is-path-closed", "enumerate"])
def test_each_command_loads_only_the_modules_its_verb_runs(argv, code, extra):
    files = [str(ROOT / w) if w.startswith("fixtures/") else w for w in argv]
    added, printed = _added_modules(_command(*files))
    assert printed == code
    assert {m for m in added if m.startswith("treeca")} == READ_A_FILE | extra


def test_importing_the_package_loads_none_of_its_modules():
    added, _ = _added_modules("import treeca")
    assert {m for m in added if m.startswith("treeca")} == {"treeca"}


# The public names of each module.  The package exports exactly these, each
# the object its module defines, so a name that moves or is renamed fails
# here before it fails a user's import.
PUBLIC = {
    "analysis": """Spine bta_congruence_down bta_congruence_up pre_context
        root_to_pivot_equiv spine_of""",
    "automata": """Bta Tta accepts is_codeterministic is_deterministic post_tree
        reachable_states reverse_bta reverse_tta seeded_post subset_name
        trim_empty trim_unreachable useful_states wpre""",
    "errors": """DEFAULT_STATE_BUDGET AddressError BudgetError MalformedContextError
        NotDeterministicError NotPathClosedError NotWellRankedError ParseError
        TreecaError""",
    "fileformat": "parse_automaton serialize_automaton",
    "minimize": """brzozowski canonical_form check_gen_det_d check_gen_det_u
        equivalent gen_det_u_witness is_path_closed isomorphic min_codbta
        minimize_bta minimize_dbta separating_tree""",
    "oracle": """language_upto nerode_classes_down nerode_classes_up
        quotient_member_down quotient_member_up""",
    "transforms": """codeterminize complete determinize subset_construction
        tta_accepts tta_determinize""",
    "trees": """DEFAULT_ENUM_BUDGET HOLE RankedAlphabet Tree check_well_ranked
        enumerate_contexts enumerate_trees format_address format_path format_term
        hole_height is_context is_well_ranked iter_nodes parse_context parse_term
        path_language pivot plug puncture subtree substitute""",
}


def test_the_package_exports_each_public_name_from_its_module():
    home = {name: module for module, names in PUBLIC.items() for name in names.split()}
    assert len(home) == 77
    assert sorted(treeca.__all__) == sorted(home)
    assert set(dir(treeca)) >= set(home)
    for name, module in home.items():
        assert getattr(treeca, name) is getattr(importlib.import_module(f"treeca.{module}"), name)
    with pytest.raises(AttributeError):
        treeca.no_such_name
    _, bound = _added_modules(
        "namespace = {}\n"
        "exec('from treeca import *', namespace)\n"
        "print(' '.join(sorted(namespace)))"
    )
    assert set(bound.split()) == set(home) | {"__builtins__"}
