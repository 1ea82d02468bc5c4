"""Pricing and analysis toolkit for two-asset options under transaction costs.

The package prices a best-of cash-or-nothing option when discrete portfolio
rebalancing makes the effective volatility solution-dependent.  It bundles:

* a closed-form frictionless benchmark (:mod:`nlbs.analytic_pricing`),
* the nonlinear cost source term and expected-cost integrals
  (:mod:`nlbs.cost_engine`),
* a well-posedness classifier built on the operator's derivative with respect
  to the price Hessian (:mod:`nlbs.ellipticity`),
* an alternating-direction implicit solver wrapped in a fixed-point iteration
  (:mod:`nlbs.adi_solver`),
* comparison and sensitivity diagnostics (:mod:`nlbs.diagnostics`),
* a JSON-config command line (:mod:`nlbs.cli`).
"""

# set before the submodules load: the command line records it in every run's metadata
__version__ = "0.1.0"

from .adi_solver import (
    BoundaryData,
    ConvergenceRecord,
    SolveResult,
    Surface,
    TridiagonalSystem,
    ZeroPivotError,
    initial_condition,
    lx_stage,
    ly_stage,
    solve_nonlinear,
    sweep,
    thomas_solve,
)
from .analytic_pricing import bivariate_cdf, cbest_price, univariate_cdf
from .cost_engine import (
    QuadratureError,
    assemble_G,
    expected_cost,
    exponential_decay_factor,
    theta_from_hessian,
    theta_log_coords,
)
from .diagnostics import (
    DtSweepResult,
    DtSweepRow,
    ErrorReport,
    PerronBound,
    dt_sensitivity_sweep,
    error_vs_analytic,
    perron_bound,
    pnorm_distance,
)
from .ellipticity import (
    DegenerateThetaError,
    DyfInputs,
    EllipticityReport,
    LelandNumber,
    NegativeDefiniteness,
    cost_integrals,
    dyf_matrix,
    is_negative_definite,
    leland_number,
    scan_surface,
)
from .market_model import (
    BestCashOrNothing,
    ConstantCost,
    CostDerivativeError,
    CostModel,
    ExponentialCost,
    GridSpec,
    MarketParams,
    SampledCost,
    Scenario,
    SolverFlags,
    ValidationError,
    default_grid,
    validate,
)

__all__ = [
    "BestCashOrNothing",
    "BoundaryData",
    "ConstantCost",
    "ConvergenceRecord",
    "CostDerivativeError",
    "CostModel",
    "DegenerateThetaError",
    "DtSweepResult",
    "DtSweepRow",
    "DyfInputs",
    "EllipticityReport",
    "ErrorReport",
    "ExponentialCost",
    "GridSpec",
    "LelandNumber",
    "MarketParams",
    "NegativeDefiniteness",
    "PerronBound",
    "QuadratureError",
    "SampledCost",
    "Scenario",
    "SolveResult",
    "SolverFlags",
    "Surface",
    "TridiagonalSystem",
    "ValidationError",
    "ZeroPivotError",
    "__version__",
    "assemble_G",
    "bivariate_cdf",
    "cbest_price",
    "cost_integrals",
    "default_grid",
    "dt_sensitivity_sweep",
    "dyf_matrix",
    "error_vs_analytic",
    "expected_cost",
    "exponential_decay_factor",
    "initial_condition",
    "is_negative_definite",
    "leland_number",
    "lx_stage",
    "ly_stage",
    "perron_bound",
    "pnorm_distance",
    "scan_surface",
    "solve_nonlinear",
    "sweep",
    "thomas_solve",
    "theta_from_hessian",
    "theta_log_coords",
    "univariate_cdf",
    "validate",
]
