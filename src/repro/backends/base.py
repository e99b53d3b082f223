"""The :class:`ArrayBackend` protocol: the solver stack's linear-algebra
substrate as a declared, swappable dependency.

The Monte Carlo hot path has exactly two numerical seams -- the
sparse base factorization behind :class:`~repro.solvers.woodbury.
WoodburySolver` (one multi-RHS backsolve per time step) and the stacked
``(S, k, k)`` batched core solve.  An :class:`ArrayBackend` owns both
seams plus the host/device memory boundary around them, so a device
runtime or a test double (``devicesim``) slots in without the solver
layer knowing which substrate it runs on.

Transfers between the host and the device memory space go through
:meth:`~ArrayBackend.to_device` / :meth:`~ArrayBackend.from_device`
*only*.  Each call increments the backend's :attr:`transfer_count` and
the ``solver.device_transfers`` telemetry counter together, so a test
(or an operator reading a campaign's metrics) can prove that zero
transfers happened outside the accounted seams.
"""

import numpy as np

from ..telemetry import tracing as telemetry


class FactorizationHandle:
    """A factorized base matrix with a backend-side solve entry point.

    ``lu`` is the underlying host SuperLU object (one-time host solves,
    e.g. ``A^-1 U`` at solver construction).  ``backsolve`` takes and
    returns arrays in the backend's memory space and is the solver's
    multi-RHS seam.
    """

    def __init__(self, lu):
        self.lu = lu

    def backsolve(self, rhs):
        """Multi-RHS solve in the backend's memory space."""
        raise NotImplementedError


class ArrayBackend:
    """Base class for array backends (see the module docstring).

    Concrete backends set :attr:`name` and implement the factorization
    and transfer methods.  Device arrays only need ``.T``, ``@``, ``*``
    and ``-`` (the Woodbury algebra), so raw ndarrays qualify for CPU
    backends and wrapped/device arrays for the rest.
    """

    #: Registry name (also the cache-key component; see
    #: :meth:`repro.solvers.cache.FactorizationCache.factorize`).
    name = None

    def __init__(self):
        self._transfer_count = 0

    @property
    def transfer_count(self):
        """Lifetime host<->device transfers through this backend."""
        return self._transfer_count

    def _count_transfer(self):
        # The backend-local count and the telemetry counter move in
        # lockstep; comparing them is how tests prove zero unaccounted
        # transfers.
        self._transfer_count += 1
        telemetry.increment("solver.device_transfers")

    # -- memory boundary ------------------------------------------------
    def to_device(self, array):
        """Copy a host ndarray into the backend's memory space."""
        raise NotImplementedError

    def from_device(self, array):
        """Copy a backend array back to a host ndarray."""
        raise NotImplementedError

    # -- the two numerical seams ---------------------------------------
    def factorize(self, base_matrix):
        """Factorize a sparse SPD base matrix into a
        :class:`FactorizationHandle`.  Prefer
        :meth:`repro.solvers.cache.FactorizationCache.factorize`, which
        memoizes per ``(fingerprint, backend.name)``."""
        raise NotImplementedError

    def batched_core_solve(self, cores, rhs):
        """Solve the stacked ``(S, k, k)`` cores against ``(S, k)``
        right-hand sides.  ``cores`` is a host ndarray (assembled on the
        host either way); ``rhs`` lives in the backend's memory space
        and so does the ``(S, k)`` result."""
        raise NotImplementedError

    # -- broadcast helper (shared-RHS fast path) ------------------------
    def broadcast_columns(self, vector, num_columns):
        """View an ``(n,)`` device vector as ``(n, num_columns)``."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} name={self.name!r}>"


def as_host_array(array):
    """Coerce to a host float ndarray (identity for ndarrays)."""
    return np.asarray(array, dtype=float)
