"""Sherman-Morrison-Woodbury solver for low-rank matrix updates.

Between Monte Carlo samples only the bonding wire conductances change, and
each wire stamps a rank-1 update ``g_j p_j p_j^T`` into the system matrix
(Section III-B of the paper).  The solver factorizes the system once with
the *nominal* stamps in place, ``A_nom = A0 + U diag(g0) U^T``, and applies
every sample's deviation ``D = diag(g - g0)`` in capacitance form:

``x = x0 - W (I + D C)^-1 D U^T x0``,  ``x0 = A_nom^-1 b``,
``W = A_nom^-1 U``,  ``C = U^T W``.

The wire-free base ``A0`` alone may be singular (a node island attached
to the rest of the mesh only through wires); ``A_nom`` is not, and the
capacitance form needs no ``1/g``, so a dropped stamp is just ``d = -g0``.
On the paper's systems ``cond(I + D C)`` stays near 1, which makes the
update as accurate as a direct solve of the stamped matrix.
"""

import numpy as np
import scipy.sparse as sp

from ..errors import SolverError
from ..telemetry import tracing as telemetry
from .cache import checked_splu

#: Largest condition number of ``I + D C`` the solver accepts, measured
#: as ``(1 + |D C|) |(I + D C)^-1|`` in the 1-norm so that a 1x1 core
#: cancelling to zero counts too.  A larger one means the conductances
#: detach part of the system (a singular stamped matrix) or cannot be
#: applied accurately in double precision.
MAX_CORE_CONDITION = 1.0e10


class WoodburySolver:
    """Solver for ``(A0 + U diag(g) U^T) x = b`` with varying ``g``.

    Parameters
    ----------
    base_matrix:
        Sparse wire-free matrix ``A0``; it may be singular as long as the
        nominally stamped ``A_nom`` is symmetric positive definite.
    update_vectors:
        Dense ``(n, k)`` matrix ``U`` whose columns are the stamp vectors
        ``p_j`` (entries +1/-1 at the wire end nodes, after Dirichlet
        reduction).
    nominal_conductances:
        Length-``k`` conductances ``g0`` stamped into the factorized
        matrix ``A_nom`` (SuperLU symmetric mode; see
        :func:`~repro.solvers.cache.checked_splu`).  Solves are most
        accurate for ``g`` near ``g0``.
    cache:
        Optional :class:`~repro.solvers.cache.FactorizationCache`; when
        given, the LU of ``A_nom`` is looked up / stored there so
        structurally identical solvers built in the same process share
        one factorization (the campaign worker pattern).
    """

    def __init__(self, base_matrix, update_vectors, nominal_conductances,
                 cache=None):
        update_vectors = np.asarray(update_vectors, dtype=float)
        if update_vectors.ndim != 2:
            raise SolverError("update_vectors must be a 2D (n, k) array")
        if update_vectors.shape[0] != base_matrix.shape[0]:
            raise SolverError(
                f"update vectors have {update_vectors.shape[0]} rows, matrix "
                f"is {base_matrix.shape[0]}x{base_matrix.shape[1]}"
            )
        self.rank = update_vectors.shape[1]
        self.update_vectors = update_vectors
        self.nominal_conductances = self._check_conductances(
            np.asarray(nominal_conductances, dtype=float).reshape(1, -1)
        )[0]
        stamps = sp.csc_matrix(update_vectors)
        nominal = (
            base_matrix
            + stamps @ sp.diags(self.nominal_conductances) @ stamps.T
        ).tocsc()
        if cache is not None:
            self._lu = cache.factorize(nominal)
        else:
            self._lu = checked_splu(nominal)
        # W = A_nom^-1 U in one multi-RHS triangular sweep, and the
        # capacitance matrix C = U^T W.
        self.base_inverse_u = self.base_solve(update_vectors)
        self._core = update_vectors.T @ self.base_inverse_u

    @property
    def size(self):
        """Number of unknowns ``n`` of the system."""
        return self.update_vectors.shape[0]

    def base_solve(self, rhs):
        """Solve ``A_nom^-1 rhs`` with the nominally stamped matrix.

        For one-time setup solves (``W`` here, a caller's precomputed
        basis); per-sample solves go through :meth:`solve_batch`.
        """
        return self._lu.solve(np.ascontiguousarray(rhs, dtype=float))

    def _check_conductances(self, conductances):
        """Validate an ``(S, k)`` block of non-negative conductances."""
        if conductances.ndim != 2:
            raise SolverError(
                f"conductances must be a 2D (S, k) block, got shape "
                f"{conductances.shape}"
            )
        if conductances.shape[1] != self.rank:
            raise SolverError(
                f"expected {self.rank} conductances per sample, got "
                f"{conductances.shape[1]}"
            )
        if np.any(conductances < 0.0):
            raise SolverError("wire conductances must be non-negative")
        return conductances

    def _check_rhs(self, rhs):
        """Validate an ``(n,)`` or ``(n, m)`` right-hand side."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim not in (1, 2):
            raise SolverError(
                f"rhs must be a 1D (n,) vector or 2D (n, m) multi-RHS "
                f"block, got a {rhs.ndim}D array of shape {rhs.shape}"
            )
        if rhs.shape[0] != self.size:
            raise SolverError(
                f"rhs has {rhs.shape[0]} rows, the system has "
                f"{self.size} unknowns"
            )
        return rhs

    def solve(self, conductances, rhs):
        """Solve for one set of per-stamp conductances ``g`` (length k).

        ``rhs`` is either one vector ``(n,)`` or a multi-RHS block
        ``(n, m)`` sharing the same conductances -- the solution has the
        same shape.  This is the one-sample case of :meth:`solve_batch`.
        Zero conductances drop their stamp; negative ones are rejected as
        non-physical.
        """
        conductances = self._check_conductances(
            np.asarray(conductances, dtype=float).reshape(1, -1)
        )
        rhs = self._check_rhs(rhs)
        if rhs.ndim == 1:
            return self._solve(conductances, rhs)[:, 0]
        return self._solve(
            np.repeat(conductances, rhs.shape[1], axis=0), rhs
        )

    def solve_batch(self, conductances, rhs):
        """Sample-blocked solve: ``(S, k)`` conductances in one pass.

        Solves ``(A0 + U diag(g_s) U^T) x_s = b_s`` for every sample
        ``s`` of a block at once: one multi-RHS backsolve, a stacked
        ``(S, k, k)`` capacitance solve and one BLAS-3 correction
        product.

        Parameters
        ----------
        conductances:
            ``(S, k)`` block of per-stamp conductances, one row per
            sample.
        rhs:
            Either an ``(n, S)`` block (one column per sample) or a
            single shared ``(n,)`` vector -- the campaign's electrical
            fast path drives every sample with the same reduced RHS, so
            the backsolve collapses to one vector solve.

        Returns
        -------
        ``(n, S)`` solution block, column ``s`` for sample ``s``.
        """
        conductances = self._check_conductances(
            np.asarray(conductances, dtype=float)
        )
        num_samples = conductances.shape[0]
        rhs = self._check_rhs(rhs)
        if rhs.ndim == 2 and rhs.shape[1] != num_samples:
            if rhs.shape[1] == 1:
                # A single column where a shared vector is meant is a
                # classic silent-broadcast hazard; name the fix.
                raise SolverError(
                    f"rhs block has 1 column for {num_samples} samples; "
                    f"pass a 1D (n,) vector to share one right-hand "
                    f"side across the block, or an (n, {num_samples}) "
                    f"block with one column per sample"
                )
            raise SolverError(
                f"rhs block has {rhs.shape[1]} columns for "
                f"{num_samples} samples"
            )
        telemetry.increment("solver.blocked_solves")
        return self._solve(conductances, rhs)

    def coefficients(self, conductances, projected):
        """Capacitance-form coefficients ``c_s = (I + D_s C)^-1 D_s p_s``.

        The solution of sample ``s`` is ``x_s = x0_s - W c_s`` with
        ``x0_s = A_nom^-1 b_s``, ``W = A_nom^-1 U`` and the projection
        ``p_s = U^T x0_s``.  ``conductances`` is an ``(S, k)`` block;
        ``projected`` is either ``(S, k)`` (one row per sample) or one
        shared ``(k,)`` row; the result is ``(S, k)``.  A caller that
        keeps ``x0`` and ``W`` in a reduced basis of its own needs only
        these ``k`` numbers per sample, not the ``n``-long solution.
        """
        conductances = self._check_conductances(
            np.asarray(conductances, dtype=float)
        )
        delta = conductances - self.nominal_conductances
        update = delta[:, :, None] * self._core
        cores = np.eye(self.rank) + update
        _check_cores(cores, update)
        try:
            return np.linalg.solve(
                cores, (delta * projected)[..., None]
            )[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"Woodbury core solve failed: {exc}") from exc

    def _solve(self, conductances, rhs):
        """The capacitance-form update for validated inputs."""
        x0 = self._lu.solve(np.ascontiguousarray(rhs))
        projected = self.update_vectors.T @ x0
        if rhs.ndim == 1:
            x0 = np.broadcast_to(
                x0[:, None], (x0.shape[0], conductances.shape[0])
            )
        else:
            projected = projected.T
        coefficients = self.coefficients(conductances, projected)
        solution = x0 - self.base_inverse_u @ coefficients.T
        if not np.all(np.isfinite(solution)):
            raise SolverError("Woodbury solve produced non-finite values")
        return solution


def _check_cores(cores, update):
    """Refuse numerically singular cores ``I + D C`` (detached stamps).

    ``update`` is ``D C``; see :data:`MAX_CORE_CONDITION` for the
    measure.  1-norms are largest absolute column sums.
    """
    if not cores.shape[-1]:
        return
    try:
        inverse = np.linalg.inv(cores)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"stamped system is singular: {exc}") from exc
    condition = (
        (1.0 + np.abs(update).sum(axis=1).max(axis=1))
        * np.abs(inverse).sum(axis=1).max(axis=1)
    )
    bad = ~(condition <= MAX_CORE_CONDITION)
    if np.any(bad):
        raise SolverError(
            f"stamped system is singular for {int(bad.sum())}/"
            f"{cores.shape[0]} samples (capacitance condition "
            f"{float(np.max(condition[bad])):.3e} > "
            f"{MAX_CORE_CONDITION:.0e}); the conductances detach part "
            f"of the system"
        )
