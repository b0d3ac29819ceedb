"""Static checks over the package source."""

import ast
import sys
import types
from pathlib import Path

import pytest

import groverian
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
