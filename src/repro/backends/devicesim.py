"""``devicesim``: a CPU test double that enforces device semantics.

CI has no GPU, but the seams a GPU backend must honor -- a separate
memory space and explicit accounted transfers -- are both checkable on
a CPU.  This backend simulates a device with two rules:

* **Separate memory space.**  Device data lives in :class:`DeviceArray`
  wrappers.  Mixing one with a host ndarray in ``@``, ``*`` or ``-`` raises
  :class:`SolverError` instead of silently computing, and so does any
  implicit ``numpy`` coercion (``__array__``): code that would crash on
  a real device (or, worse, silently round-trip through the host)
  crashes here, in tests.
* **Accounted transfers.**  Every host->device and device->host copy
  goes through :meth:`to_device` / :meth:`from_device`, incrementing
  both the backend's ``transfer_count`` and the
  ``solver.device_transfers`` telemetry counter.  "Zero unaccounted
  transfers" is then a checkable equality between the two.
"""

import numpy as np

from ..errors import SolverError
from .base import ArrayBackend, FactorizationHandle
from .registry import register_array_backend


def _unwrap(array, context):
    if not isinstance(array, DeviceArray):
        raise SolverError(
            f"devicesim: {context} expected a device array, got "
            f"{type(array).__name__}; move host data across with "
            f"backend.to_device(...)"
        )
    return array._data


class DeviceArray:
    """An array in the simulated device memory space.

    Supports exactly the algebra the Woodbury solver needs (``.T``,
    ``@``, ``*``, ``-``) between device arrays; any operation that
    would silently mix in a host ndarray raises :class:`SolverError`.
    """

    # Tell numpy to stand down so our reflected operators (and their
    # mixing errors) run instead of silent ndarray coercion.
    __array_ufunc__ = None

    def __init__(self, data):
        self._data = data

    @property
    def shape(self):
        return self._data.shape

    @property
    def ndim(self):
        return self._data.ndim

    @property
    def dtype(self):
        return self._data.dtype

    @property
    def T(self):  # noqa: N802 - mirrors the ndarray property
        return DeviceArray(self._data.T)

    def _coerce(self, other, op):
        if isinstance(other, DeviceArray):
            return other._data
        raise SolverError(
            f"devicesim: refusing to mix a device array with host data "
            f"({type(other).__name__}) in '{op}'; transfer explicitly "
            f"with backend.to_device(...) / backend.from_device(...)"
        )

    def __matmul__(self, other):
        return DeviceArray(self._data @ self._coerce(other, "@"))

    def __rmatmul__(self, other):
        return DeviceArray(self._coerce(other, "@") @ self._data)

    def __mul__(self, other):
        return DeviceArray(self._data * self._coerce(other, "*"))

    def __rmul__(self, other):
        return DeviceArray(self._coerce(other, "*") * self._data)

    def __sub__(self, other):
        return DeviceArray(self._data - self._coerce(other, "-"))

    def __rsub__(self, other):
        return DeviceArray(self._coerce(other, "-") - self._data)

    def __array__(self, *args, **kwargs):
        raise SolverError(
            "devicesim: implicit device->host conversion; use "
            "backend.from_device(...) so the transfer is accounted"
        )

    def __repr__(self):
        return f"DeviceArray(shape={self.shape}, dtype={self.dtype})"


class DeviceSimFactorization(FactorizationHandle):
    """Host SuperLU factorization with a device-facing backsolve."""

    def backsolve(self, rhs):
        # The simulated device "owns" a copy of the factorization, so a
        # backsolve is a device-side operation: device in, device out,
        # no transfer.
        return DeviceArray(self.lu.solve(
            np.ascontiguousarray(_unwrap(rhs, "backsolve"))
        ))


class DeviceSimBackend(ArrayBackend):
    """The device-semantics test double (see the module docstring)."""

    name = "devicesim"

    def to_device(self, array):
        self._count_transfer()
        # np.array copies: the "device" never aliases host memory.
        return DeviceArray(np.array(array, dtype=float))

    def from_device(self, array):
        self._count_transfer()
        return np.array(_unwrap(array, "from_device"))

    def factorize(self, base_matrix):
        from ..solvers.cache import checked_splu

        return DeviceSimFactorization(checked_splu(base_matrix))

    def batched_core_solve(self, cores, rhs):
        # The (S, k, k) cores are assembled on the host (cheap, data-
        # dependent) and uploaded here -- a counted transfer, exactly
        # like the cores upload a GPU backend pays.
        cores_device = self.to_device(cores)
        rhs_data = _unwrap(rhs, "batched_core_solve")
        return DeviceArray(
            np.linalg.solve(cores_device._data, rhs_data[..., None])[..., 0]
        )

    def broadcast_columns(self, vector, num_columns):
        data = _unwrap(vector, "broadcast_columns")
        return DeviceArray(
            np.broadcast_to(data[:, None], (data.shape[0], num_columns))
        )


@register_array_backend("devicesim")
def _devicesim_backend():
    return DeviceSimBackend()
