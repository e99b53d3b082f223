"""The reference CPU backend: scipy ``splu`` + numpy.

"Device" arrays are host ndarrays, transfers are identities (and are
*not* counted -- there is no memory boundary to account for), and the
batched core solve is ``numpy.linalg.solve`` over the stacked cores.
"""

import numpy as np

from .base import ArrayBackend, FactorizationHandle
from .registry import register_array_backend


class NumpyFactorization(FactorizationHandle):
    """Host SuperLU handle; host and "device" solves coincide."""

    def backsolve(self, rhs):
        return self.lu.solve(rhs)


class NumpyBackend(ArrayBackend):
    """scipy/numpy reference backend (the default)."""

    name = "numpy"

    def to_device(self, array):
        # No memory boundary: the host array *is* the device array.
        # Deliberately not counted as a transfer.
        return np.asarray(array, dtype=float)

    def from_device(self, array):
        return np.asarray(array, dtype=float)

    def factorize(self, base_matrix):
        from ..solvers.cache import checked_splu

        return NumpyFactorization(checked_splu(base_matrix))

    def batched_core_solve(self, cores, rhs):
        return np.linalg.solve(cores, rhs[..., None])[..., 0]

    def broadcast_columns(self, vector, num_columns):
        return np.broadcast_to(
            vector[:, None], (vector.shape[0], num_columns)
        )


@register_array_backend("numpy")
def _numpy_backend():
    return NumpyBackend()
