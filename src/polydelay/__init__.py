"""Delay differential equations with polynomially distributed delays.

The package solves y'(t) = f(y(t), integral_a^b y(t-tau) g(tau) dtau) for
polynomial densities g two independent ways: exactly, through an
equivalent system with the two discrete delays a and b built from the
truncated moment functions of the history, and approximately, by
replacing the integral with a Gaussian quadrature sum so the problem
becomes a DDE with m discrete delays. A shared embedded Runge-Kutta 3(2)
integrator with cubic Hermite dense output advances both forms by the
method of steps.
"""

from .ddesolver import (DiscreteDelayDde, SolverError, SolverOptions,
                        Trajectory, dense_eval, sample, solve)
from .models import (SirParameters, sir_conserved, sir_distributed,
                     sir_equilibrium)
from .quadrature import (MAX_NODES, QuadratureRule, apply,
                         build_quadrature_dde, gauss_jacobi, gauss_legendre)
from .transform import (MAX_EQUIVALENT_DEGREE, DistributedDelayDde,
                        EquivalentSystem, aux_initial_values, build_equivalent,
                        nilpotent_exponential, scale_distributed,
                        stationary_aux, structure_matrix)
from .weightfn import (MAX_DEGREE, PolynomialWeight, beta_polynomial,
                       evaluate, moment, rescale_to_unit)

__version__ = "0.1.0"

__all__ = [
    "DiscreteDelayDde", "SolverError", "SolverOptions", "Trajectory",
    "dense_eval", "sample", "solve",
    "SirParameters", "sir_conserved", "sir_distributed", "sir_equilibrium",
    "MAX_NODES", "QuadratureRule", "apply", "build_quadrature_dde",
    "gauss_jacobi", "gauss_legendre",
    "MAX_EQUIVALENT_DEGREE", "DistributedDelayDde", "EquivalentSystem",
    "aux_initial_values", "build_equivalent",
    "nilpotent_exponential", "scale_distributed",
    "stationary_aux", "structure_matrix",
    "MAX_DEGREE", "PolynomialWeight", "beta_polynomial", "evaluate",
    "moment", "rescale_to_unit",
    "__version__",
]
