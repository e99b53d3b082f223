"""Sparse linear solves with factorization reuse.

The coupled electrothermal loop solves many systems with identical sparsity
and often identical values (e.g. when material nonlinearities have
converged, or in the frozen-materials ablation).  :class:`LinearSolver`
caches the LU factorization and only refactorizes when the matrix
actually changed.
"""

import numpy as np
import scipy.sparse.linalg as spla

from ..errors import SolverError
from .cache import checked_splu, matrix_fingerprint


def solve_sparse(matrix, rhs):
    """One-shot sparse direct solve with result validation."""
    matrix = matrix.tocsc()
    rhs = np.asarray(rhs, dtype=float)
    try:
        solution = spla.spsolve(matrix, rhs)
    except RuntimeError as exc:
        raise SolverError(f"sparse direct solve failed: {exc}") from exc
    if not np.all(np.isfinite(solution)):
        raise SolverError("sparse direct solve produced non-finite values")
    return solution


class LinearSolver:
    """LU-backed solver that reuses factorizations across calls.

    ``solve(matrix, rhs)`` refactorizes only when the matrix changed since
    the previous call.  The change test compares
    :func:`~repro.solvers.cache.matrix_fingerprint` content hashes, the
    exact key of the factorization cache, so any change in structure or
    values refactorizes.  Factorizations use SuperLU's symmetric mode
    (:func:`~repro.solvers.cache.checked_splu`), so the matrix must be
    symmetric positive definite, as the FIT stiffness and heat-balance
    systems are; a matrix that is not exactly symmetric raises
    :class:`~repro.errors.SolverError`.
    """

    def __init__(self):
        self._lu = None
        self._fingerprint = None
        self.factorization_count = 0
        self.solve_count = 0

    def solve(self, matrix, rhs):
        """Solve ``matrix @ x = rhs``, reusing the cached LU if possible."""
        matrix = matrix.tocsc()
        rhs = np.asarray(rhs, dtype=float)
        if rhs.size != matrix.shape[0]:
            raise SolverError(
                f"rhs size {rhs.size} does not match matrix "
                f"{matrix.shape[0]}x{matrix.shape[1]}"
            )
        fingerprint = matrix_fingerprint(matrix)
        if self._lu is None or fingerprint != self._fingerprint:
            if (matrix != matrix.T).nnz:
                raise SolverError(
                    "LinearSolver factorizes in symmetric mode; the "
                    f"{matrix.shape[0]}x{matrix.shape[1]} matrix is not "
                    "symmetric"
                )
            self._lu = checked_splu(matrix)
            self._fingerprint = fingerprint
            self.factorization_count += 1
        solution = self._lu.solve(rhs)
        self.solve_count += 1
        if not np.all(np.isfinite(solution)):
            raise SolverError("LU solve produced non-finite values")
        return solution

    def invalidate(self):
        """Drop the cached factorization (e.g. after a mesh change)."""
        self._lu = None
        self._fingerprint = None
