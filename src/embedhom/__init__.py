"""Approximate homogenized matrices via embedded corrector problems.

The package solves, by P1 finite elements on a truncated box, the corrector
problem of a heterogeneous coefficient field filling the unit ball embedded
in an infinite constant medium, and derives several estimators of the
homogenized matrix from the resulting energies: a concave-maximization
estimator, its energy-matrix average, matrix and scalar self-consistent
fixed points, the non-convergent naive flux average, and a periodic-cell
reference for comparison.
"""

__version__ = "0.1.0"

from .corrector import (CorrectorSolution, EmbeddedProblem, energy_matrix,
                        solve_embedded)
from .errors import (BracketError, ConfigError, ConvergenceError,
                     EmbedHomError, GeometryError, InvalidCoefficientError)
from .estimators import (METHODS, BisectOptions, EffectiveMatrixReport,
                         FixedPointOptions, OptimizerOptions,
                         estimate_averaged, estimate_energy_min,
                         estimate_naive, estimate_periodic_ref,
                         estimate_self_consistent,
                         estimate_self_consistent_scalar)
from .fem import Discretization, Mesh, build_mesh
from .fields import (CoefficientField, make_checkerboard, make_constant,
                     make_inclusions, make_laminate, make_one_dim_piecewise,
                     rescale)
from .matrices import EllipticityBounds, project_to_admissible
from .reference import (Harmonic1DModel, analytic_j_1d, eshelby_corrector,
                        eshelby_trace_g, harmonic_mean_1d, periodic_effective)

__all__ = [
    "__version__",
    "BisectOptions", "BracketError", "CoefficientField", "ConfigError",
    "ConvergenceError", "CorrectorSolution", "Discretization",
    "EffectiveMatrixReport", "EllipticityBounds", "EmbedHomError",
    "EmbeddedProblem", "FixedPointOptions", "GeometryError",
    "Harmonic1DModel", "InvalidCoefficientError", "METHODS", "Mesh",
    "OptimizerOptions", "analytic_j_1d", "build_mesh", "energy_matrix",
    "eshelby_corrector", "eshelby_trace_g", "estimate_averaged",
    "estimate_energy_min", "estimate_naive", "estimate_periodic_ref",
    "estimate_self_consistent", "estimate_self_consistent_scalar",
    "harmonic_mean_1d", "make_checkerboard",
    "make_constant", "make_inclusions", "make_laminate",
    "make_one_dim_piecewise", "periodic_effective", "project_to_admissible",
    "rescale", "solve_embedded",
]
