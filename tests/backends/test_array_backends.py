"""Array-backend protocol, registry and numpy-reference behavior."""

import numpy as np
import pytest

from repro.backends import (
    ArrayBackend,
    get_array_backend,
    register_array_backend,
    registered_array_backends,
)
from repro.backends.registry import ENV_DEFAULT, default_array_backend_name
from repro.errors import SolverError


class TestRegistry:
    def test_builtins_registered(self):
        names = registered_array_backends()
        assert {"numpy", "devicesim"} <= set(names)
        assert names == sorted(names)

    def test_default_is_numpy(self, monkeypatch):
        # The out-of-the-box default, with no environment override.
        monkeypatch.delenv(ENV_DEFAULT, raising=False)
        backend = get_array_backend(None)
        assert backend.name == "numpy"
        assert get_array_backend() is backend  # process singleton

    def test_instance_passthrough(self):
        backend = get_array_backend("numpy")
        assert get_array_backend(backend) is backend

    def test_unknown_name_lists_registered(self):
        with pytest.raises(SolverError, match="unknown array backend"):
            get_array_backend("tpu")
        with pytest.raises(SolverError, match="numpy"):
            get_array_backend("tpu")

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(ENV_DEFAULT, "devicesim")
        assert default_array_backend_name() == "devicesim"
        assert get_array_backend(None).name == "devicesim"
        # Explicit selection still wins over the environment.
        assert get_array_backend("numpy").name == "numpy"

    def test_decorator_registration(self):
        @register_array_backend("_test_backend")
        def _factory():
            backend = ArrayBackend()
            backend.name = "_test_backend"
            return backend

        try:
            assert "_test_backend" in registered_array_backends()
            assert get_array_backend("_test_backend").name == "_test_backend"
        finally:
            from repro.backends import registry

            registry._FACTORIES.pop("_test_backend", None)
            registry._INSTANCES.pop("_test_backend", None)


class TestNumpyBackendIsTheReferencePath:
    def test_batched_core_solve_matches_per_matrix(self):
        backend = get_array_backend("numpy")
        rng = np.random.default_rng(3)
        cores = rng.standard_normal((5, 4, 4)) + 4.0 * np.eye(4)
        rhs = rng.standard_normal((5, 4))
        batched = backend.batched_core_solve(cores, rhs)
        for s in range(5):
            assert np.array_equal(
                batched[s], np.linalg.solve(cores[s], rhs[s])
            )

    def test_transfers_are_identity_and_uncounted(self):
        backend = get_array_backend("numpy")
        before = backend.transfer_count
        array = np.arange(3.0)
        assert backend.from_device(backend.to_device(array)) is not None
        assert backend.transfer_count == before
