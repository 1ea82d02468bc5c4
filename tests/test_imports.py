"""Module layout: every import sits at the top of its module and is used
there, and the package exports only what its modules export."""

import ast
import inspect
from pathlib import Path

import nlbs
from nlbs import adi_solver, analytic_pricing, cost_engine, diagnostics, ellipticity, market_model

SRC = Path(__file__).resolve().parents[1] / "src" / "nlbs"
ALLOWED = set()


def test_no_import_inside_a_function_body():
    """A call-time import hides a dependency, and with it an import cycle."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(func)):
                    found.add((path.name, func.name))
    assert found == ALLOWED


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads.

    A name counts as read where it appears as a name (``np`` in ``np.exp``)
    or as an ``__all__`` entry, so a package re-export counts as a use.
    """
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nimport sys\nfrom typing import Callable\nsys.exit\n"
    assert unused_imports(source) == ["Callable", "os"]
    assert unused_imports("from .a import f\n__all__ = ['f']\n") == []


def test_every_module_level_import_is_used():
    found = {path.name: unused_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_grid_lives_with_the_other_scenario_containers():
    assert nlbs.GridSpec is market_model.GridSpec
    assert nlbs.default_grid is market_model.default_grid


def test_every_package_export_is_a_module_export():
    """``nlbs.__all__`` re-exports module ``__all__`` names; the names that
    only tests used, and the quadrature's error, are gone from the package."""
    modules = (adi_solver, analytic_pricing, cost_engine, diagnostics, ellipticity, market_model)
    exported = set().union(*(m.__all__ for m in modules))
    assert set(nlbs.__all__) - {"__version__"} <= exported
    for name in (
        "thomas_solve", "TridiagonalSystem", "lx_stage", "ly_stage",
        "pnorm_distance", "univariate_cdf", "theta_log_coords", "QuadratureError",
        "theta_from_hessian", "is_negative_definite", "NegativeDefiniteness",
        "SolverFlags",
    ):
        assert not hasattr(nlbs, name), name


def test_no_package_callable_takes_flags():
    """The stencil is a field of the grid, so no entry point takes it beside the scenario."""
    for name in nlbs.__all__:
        obj = getattr(nlbs, name)
        if inspect.isfunction(obj) or inspect.isclass(obj) and not issubclass(obj, Exception):
            assert "flags" not in inspect.signature(obj).parameters, name
