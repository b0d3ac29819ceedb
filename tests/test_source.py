"""Static checks over the package source."""

import ast
import dataclasses
import inspect
import sys
import types
from pathlib import Path

import pytest

import groverian
from groverian import GroverConfig, SolverConfig, cli, refutation_report
from groverian.states import FAMILIES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groverian"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O removes assert statements, so an invariant written as one
    # silently stops being checked; raise a typed error instead.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_itself(path):
    # numpy is the only declared dependency; a stray import of another
    # installed package would pass here and fail on a clean install.
    allowed = set(sys.stdlib_module_names) | {"numpy", "groverian"}
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    bad = [(line, name) for line, name in found if name.split(".")[0] not in allowed]
    assert bad == [], f"{path.name}: imports outside stdlib, numpy and groverian: {bad}"


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_scripts_exit_through_cli_run(path):
    # groverian.cli.run is the one mapping of library errors to exit codes; a
    # try statement in a script is a second copy of it that can drift.
    tree = ast.parse(path.read_text(), filename=str(path))
    tries = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Try)]
    assert tries == [], f"{path.name}: try statements at lines {tries}"
    calls = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert "run(main)" in calls, f"{path.name}: does not call run(main)"


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "states.py"),
    ids=lambda p: p.name,
)
def test_family_names_only_in_the_registry(path):
    # states.FAMILIES is the one family table; a family name spelled out in
    # another module is a second table that can drift from it.  __init__.py's
    # __all__ may name the public builders.
    tree = ast.parse(path.read_text(), filename=str(path))
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = {id(c) for c in ast.walk(node.value)}
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value in FAMILIES
        and id(node) not in exported
    ]
    assert lines == [], f"{path.name}: family names outside the registry at lines {lines}"


CLI_AND_SCRIPTS = [PACKAGE / "cli.py", *sorted((ROOT / "scripts").glob("*.py"))]

SHARED_FLAGS = {
    "--seeds", "--tol", "--max-sweeps", "--rng-seed", "--resolution", "--eps", "--identity-samples",
}


def test_shared_flag_defaults_come_from_the_library():
    # SolverConfig and refutation_report own these defaults; a number in a
    # flag's default= is a second copy that can drift from them.
    seen, found = set(), []
    for path in CLI_AND_SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"):
                continue
            flags = {a.value for a in node.args if isinstance(a, ast.Constant)} & SHARED_FLAGS
            seen |= flags
            defaults = [kw.value for kw in node.keywords if kw.arg == "default"]
            if flags and any(
                isinstance(c, ast.Constant) and type(c.value) in (int, float)
                for d in defaults for c in ast.walk(d)
            ):
                found.append((path.name, node.lineno, *sorted(flags)))
    assert seen == SHARED_FLAGS
    assert found == [], f"shared flags with a numeric default: {found}"


def test_library_flags_are_named_after_their_parameters():
    # cli.flag_values passes a flag to the parameter its dest names, so a
    # flag whose dest names no parameter would be dropped without a word.
    # The grover-trace parser holds the solver parent's actions.
    library = (
        {f.name for f in dataclasses.fields(SolverConfig)}
        | set(inspect.signature(refutation_report).parameters)
        | {f.name for f in dataclasses.fields(GroverConfig)}
    )
    subparsers = next(a for a in cli._build_parser()._actions if a.choices)
    parsers = (cli.STARTS, cli.REFUTE, subparsers.choices["grover-trace"])
    dests = {a.dest for p in parsers for a in p._actions} - {"help", "output"}
    assert dests - library == set()


def test_flags_reach_the_library_only_through_flag_values():
    # A keyword argument read from args is a second, hand-written mapping of
    # a flag to a parameter, which can drift from the dest that names it.
    found = []
    for path in CLI_AND_SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.keyword) and any(
                isinstance(a, ast.Attribute) and ast.unparse(a.value) == "args"
                for a in ast.walk(node.value)
            ):
                found.append((path.name, node.value.lineno, ast.unparse(node)))
    assert found == [], f"keyword arguments read from args: {found}"


def test_all_lists_exactly_the_public_names():
    # A name deleted from a module but left in __all__ breaks
    # `from groverian import *`; a public name missing from __all__ is
    # exported by accident.  Submodules are not part of the list.
    public = {
        name
        for name, value in vars(groverian).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    listed = set(groverian.__all__)
    assert listed - public == set(), f"listed in __all__ but not defined: {listed - public}"
    assert public - listed == set(), f"public but not in __all__: {public - listed}"


def test_budgets_only_in_states():
    # states.AMPLITUDE_BUDGET is the one memory budget; a module-level
    # *_BUDGET elsewhere is a second size limit that can drift from it.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "states.py":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                found += [
                    (path.name, name.id)
                    for name in ast.walk(node)
                    if isinstance(name, ast.Name)
                    and isinstance(name.ctx, ast.Store)
                    and name.id.endswith("_BUDGET")
                ]
    assert found == [], f"module-level budgets outside states.py: {found}"


def test_amplitude_budget_read_only_in_states():
    # states._check_budget is the one comparison against AMPLITUDE_BUDGET; a
    # module that imports or names the budget can compare against it again.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "states.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rpartition(".")[2] for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(path.name, node.lineno) for name in names if name == "AMPLITUDE_BUDGET"]
    assert found == [], f"AMPLITUDE_BUDGET outside states.py: {found}"


def test_workspace_binds_one_layout():
    # _Workspace.bind builds the same views for every working batch; a branch
    # in it is a second layout that only some solves would reach.
    tree = ast.parse((PACKAGE / "solver.py").read_text())
    (workspace,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Workspace"]
    (bind,) = [n for n in workspace.body if isinstance(n, ast.FunctionDef) and n.name == "bind"]
    lines = [node.lineno for node in ast.walk(bind) if isinstance(node, (ast.If, ast.IfExp))]
    assert lines == [], f"solver.py: _Workspace.bind branches at lines {lines}"


def _finite_maxsize(call: ast.Call, constants: dict) -> bool:
    """Whether an lru_cache(...) call names a finite maxsize: none given (the
    default, 128), an int, or a module-level name bound to an int."""
    given = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    if not given:
        return True
    value = given[0]
    if isinstance(value, ast.Name):
        value = constants.get(value.id)
    return isinstance(value, ast.Constant) and type(value.value) is int


def test_caches_are_bounded():
    # functools.cache and lru_cache(maxsize=None) keep every result for the
    # life of the process; a cache under src/ must have a finite maxsize.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        constants = {
            target.id: node.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [(path.name, node.lineno) for alias in node.names if alias.name == "cache"]
            elif isinstance(node, ast.Attribute) and node.attr == "cache" and ast.unparse(node.value) == "functools":
                found.append((path.name, node.lineno))
            elif (
                isinstance(node, ast.Call)
                and ast.unparse(node.func).rpartition(".")[2] == "lru_cache"
                and not _finite_maxsize(node, constants)
            ):
                found.append((path.name, node.lineno))
    assert found == [], f"unbounded caches: {found}"
