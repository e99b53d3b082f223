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
from .cache import matrix_fingerprint


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
    values refactorizes.
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
            try:
                self._lu = spla.splu(matrix)
            except RuntimeError as exc:
                raise SolverError(f"LU factorization failed: {exc}") from exc
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
