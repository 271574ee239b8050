"""Regression Monte Carlo solver for coupled regime-switching value systems.

The package simulates a transmutation-diffusion pair (a marked-Poisson regime
process and an Euler state scheme on per-path concatenated grids), runs
penalized backward induction with least-squares conditional expectations, and
cross-validates against two independent oracles: exact dynamic programming on
a finite chain and a finite-difference solve of the coupled obstacle system.
"""

from .backward import (
    ConvergenceReport,
    DivergenceError,
    SchemeConfig,
    SolveResult,
    estimate_u,
    estimate_z,
    penalization_ladder,
    skorohod_residual,
    solve_backward,
    step_y,
)
from .catalog import build_problem, catalog_defaults, list_catalog
from .forward import (
    PathBundle,
    bundle_from_paths,
    simulate_paths,
)
from .lattice import LatticeChain, LatticeSpec, build_lattice_chain
from .oracles import (
    CompareReport,
    GridSolution,
    LatticeSolution,
    default_grid,
    facelift_terminal,
    fd_solve,
    lattice_dp_solve,
    oracle_compare,
)
from .problem import (
    CoefficientSet,
    IntensityMeasure,
    ProblemSpec,
    SwitchingCosts,
    ValidationReport,
    make_switching_problem,
    validate_problem,
)
from .regression import BasisSpec, OlsFit, build_design, ols_fit

__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "CompareReport",
    "CoefficientSet",
    "ConvergenceReport",
    "DivergenceError",
    "GridSolution",
    "IntensityMeasure",
    "LatticeChain",
    "LatticeSolution",
    "LatticeSpec",
    "OlsFit",
    "PathBundle",
    "ProblemSpec",
    "SchemeConfig",
    "SolveResult",
    "SwitchingCosts",
    "ValidationReport",
    "build_design",
    "build_lattice_chain",
    "build_problem",
    "bundle_from_paths",
    "catalog_defaults",
    "default_grid",
    "estimate_u",
    "estimate_z",
    "facelift_terminal",
    "fd_solve",
    "lattice_dp_solve",
    "list_catalog",
    "make_switching_problem",
    "ols_fit",
    "oracle_compare",
    "penalization_ladder",
    "simulate_paths",
    "skorohod_residual",
    "solve_backward",
    "step_y",
    "validate_problem",
]
