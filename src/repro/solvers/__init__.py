"""Linear and nonlinear solver utilities.

* :mod:`repro.solvers.linear` -- sparse direct solves with factorization
  reuse (the coupled loop re-solves with the same matrix whenever the
  nonlinearity has stagnated),
* :mod:`repro.solvers.woodbury` -- Sherman-Morrison-Woodbury updates for
  matrices that differ from a factorized base only by the low-rank bonding
  wire stamps (the Monte Carlo fast path),
* :mod:`repro.solvers.cache` -- content-addressed LU factorization cache
  shared by solvers rebuilt in one process (the campaign worker pattern),
* :mod:`repro.solvers.newton` -- the damped fixed-point (successive
  substitution) iteration,
* :mod:`repro.solvers.time_integration` -- the fixed time grid and the
  implicit Euler / theta-method steppers for the transient heat
  equation.  Every coupled transient runs implicit Euler on a fixed
  :class:`TimeGrid` (the paper's 51 points over 50 s); there is no
  step-size controller.
"""

from .cache import FactorizationCache, matrix_fingerprint, shared_cache
from .linear import LinearSolver, solve_sparse
from .newton import FixedPointResult, fixed_point
from .time_integration import ImplicitEuler, ThetaMethod, TimeGrid
from .woodbury import WoodburySolver

__all__ = [
    "FactorizationCache",
    "matrix_fingerprint",
    "shared_cache",
    "LinearSolver",
    "solve_sparse",
    "fixed_point",
    "FixedPointResult",
    "ImplicitEuler",
    "ThetaMethod",
    "TimeGrid",
    "WoodburySolver",
]
