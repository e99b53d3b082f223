"""CuPy array backend behind the ``[gpu]`` optional extra.

Import-guarded: constructing the backend (the first
``get_array_backend("cupy")``) raises a :class:`SolverError` naming the
missing extra when CuPy is not importable, so ``--array-backend cupy``
on a CPU-only host fails fast with an actionable message instead of an
``ImportError`` from deep inside a worker.

The cost model mirrors ``devicesim`` (which is this backend's CI test
double): the base factorization stays on the host (SuperLU -- sparse LU
is latency-bound and the factorization happens once), its factors are
mirrored to the device lazily on the first backsolve, and the
hot loop's algebra -- the multi-RHS backsolve, the stacked core solves,
the BLAS-3 corrections -- runs on the device with counted transfers per
solve (RHS, conductance deviations and cores up, solution down) plus
the one-time operator uploads.
"""

from ..errors import SolverError
from .base import ArrayBackend, FactorizationHandle
from .registry import register_array_backend


def _import_cupy():
    try:
        import cupy
        import cupyx.scipy.sparse as cusparse
        import cupyx.scipy.sparse.linalg as cusolve
    except ImportError as exc:
        raise SolverError(
            "array backend 'cupy' requires CuPy, which is not "
            "installed; install the optional extra with "
            "`pip install 'repro-date16[gpu]'` (or pick "
            "--array-backend numpy / devicesim)"
        ) from exc
    return cupy, cusparse, cusolve


class CupyFactorization(FactorizationHandle):
    """Host SuperLU handle with a lazily mirrored device factorization."""

    def __init__(self, lu, backend, base_csc):
        super().__init__(lu)
        self._backend = backend
        self._base_csc = base_csc
        self._device_lu = None

    def backsolve(self, rhs):
        if self._device_lu is None:
            cupy, cusparse, cusolve = self._backend._cupy
            # One-time factor mirror: counted as a single transfer (it
            # is one bulk upload of the base system).
            self._backend._count_transfer()
            self._device_lu = cusolve.splu(
                cusparse.csc_matrix(self._base_csc)
            )
            self._base_csc = None
        return self._device_lu.solve(rhs)


class CupyBackend(ArrayBackend):
    """GPU backend over CuPy (requires the ``[gpu]`` extra)."""

    name = "cupy"

    def __init__(self):
        super().__init__()
        self._cupy = _import_cupy()

    def to_device(self, array):
        cupy, _, _ = self._cupy
        self._count_transfer()
        return cupy.asarray(array, dtype=cupy.float64)

    def from_device(self, array):
        cupy, _, _ = self._cupy
        self._count_transfer()
        return cupy.asnumpy(array)

    def factorize(self, base_matrix, symmetric=False):
        from ..solvers.cache import checked_splu

        base_csc = base_matrix.tocsc()
        return CupyFactorization(
            checked_splu(base_csc, symmetric=symmetric), self, base_csc
        )

    def batched_core_solve(self, cores, rhs):
        cupy, _, _ = self._cupy
        cores_device = self.to_device(cores)
        return cupy.linalg.solve(cores_device, rhs[..., None])[..., 0]

    def broadcast_columns(self, vector, num_columns):
        cupy, _, _ = self._cupy
        return cupy.broadcast_to(
            vector[:, None], (vector.shape[0], num_columns)
        )

    def broadcast_rows(self, vector, num_rows):
        cupy, _, _ = self._cupy
        return cupy.broadcast_to(vector, (num_rows, vector.shape[0]))


@register_array_backend("cupy")
def _cupy_backend():
    return CupyBackend()
