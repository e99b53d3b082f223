"""The devicesim test double: device semantics enforced on a CPU.

Two contracts under test (DESIGN.md "Array backends"):

* separate memory space -- mixing a :class:`DeviceArray` with a host
  ndarray raises instead of silently computing;
* accounted transfers -- the backend's ``transfer_count`` and the
  ``solver.device_transfers`` telemetry counter move in lockstep, so
  "zero unaccounted transfers" is a checkable equality.

The solver's accuracy under this backend is checked by the direct-solve
oracle in ``tests/solvers/test_woodbury.py``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends import DeviceArray, get_array_backend
from repro.errors import SolverError
from repro.solvers.woodbury import WoodburySolver
from repro.telemetry import tracing


def _base(n, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * 0.1
    return sp.csc_matrix(dense + dense.T + 10.0 * np.eye(n))


def _stamps(n, k):
    u = np.zeros((n, k))
    for j in range(k):
        u[2 * j, j] = 1.0
        u[2 * j + 1, j] = -1.0
    return u


@pytest.fixture
def backend():
    return get_array_backend("devicesim")


class TestMemorySpace:
    def test_roundtrip_copies(self, backend):
        host = np.arange(4.0)
        device = backend.to_device(host)
        assert isinstance(device, DeviceArray)
        back = backend.from_device(device)
        assert np.array_equal(back, host)
        host[0] = 99.0  # the device copy must not alias host memory
        assert backend.from_device(device)[0] == 0.0

    def test_matmul_with_host_array_refused(self, backend):
        device = backend.to_device(np.eye(3))
        with pytest.raises(SolverError, match="refusing to mix"):
            device @ np.ones(3)
        with pytest.raises(SolverError, match="refusing to mix"):
            np.ones((2, 3)) @ device

    def test_subtraction_with_host_array_refused(self, backend):
        device = backend.to_device(np.ones(3))
        with pytest.raises(SolverError, match="refusing to mix"):
            device - np.ones(3)
        with pytest.raises(SolverError, match="refusing to mix"):
            np.ones(3) - device

    def test_multiplication_with_host_array_refused(self, backend):
        device = backend.to_device(np.ones(3))
        with pytest.raises(SolverError, match="refusing to mix"):
            device * np.ones(3)
        with pytest.raises(SolverError, match="refusing to mix"):
            np.ones(3) * device

    def test_implicit_host_conversion_refused(self, backend):
        device = backend.to_device(np.ones(3))
        with pytest.raises(SolverError, match="from_device"):
            np.asarray(device)

    def test_from_device_rejects_host_arrays(self, backend):
        with pytest.raises(SolverError, match="expected a device array"):
            backend.from_device(np.ones(3))

    def test_device_algebra_works(self, backend):
        a = backend.to_device(np.arange(6.0).reshape(2, 3))
        b = backend.to_device(np.ones((3, 2)))
        product = backend.from_device(a @ b)
        assert product.shape == (2, 2)
        assert a.T.shape == (3, 2)


class TestTransferAccounting:
    def test_counter_and_telemetry_move_in_lockstep(self, backend):
        with tracing.capture() as collector:
            before = backend.transfer_count
            device = backend.to_device(np.ones(5))
            backend.from_device(device)
            moved = backend.transfer_count - before
        assert moved == 2
        assert collector.registry.counter_value(
            "solver.device_transfers"
        ) == moved

    def test_blocked_solve_transfers_fully_accounted(self, backend):
        rng = np.random.default_rng(1)
        n, k, samples = 30, 3, 8
        solver = WoodburySolver(_base(n), _stamps(n, k), np.ones(k),
                                backend="devicesim")
        g = rng.uniform(0.5, 5.0, (samples, k))
        rhs = rng.standard_normal(n)
        solver.solve_batch(g, rhs)  # one-time operator uploads
        with tracing.capture() as collector:
            before = backend.transfer_count
            solver.solve_batch(g, rhs)
            moved = backend.transfer_count - before
        # Steady state: RHS, conductance deviations and cores up,
        # solution down -- every one visible in the telemetry counter.
        assert moved == 4
        assert collector.registry.counter_value(
            "solver.device_transfers"
        ) == moved
