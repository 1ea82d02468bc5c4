"""Module layout: every import sits at the top of its module, and the
package exports only what its modules export."""

import ast
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
    ):
        assert not hasattr(nlbs, name), name
