"""Tests for the content-addressed factorization cache."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SolverError
from repro.solvers.cache import (
    FactorizationCache,
    checked_splu,
    matrix_fingerprint,
)


def _spd(n=12, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n))
    return sp.csc_matrix(dense @ dense.T + n * np.eye(n))


class TestFingerprintCanonicalization:
    """Numerically identical matrices must fingerprint identically no
    matter how they were assembled."""

    def test_explicit_zeros_do_not_change_the_fingerprint(self):
        clean = sp.csc_matrix(np.array([[4.0, 0.0], [1.0, 3.0]]))
        # Hand-built CSC storing the (0, 1) zero explicitly.
        padded = sp.csc_matrix(
            (np.array([4.0, 1.0, 0.0, 3.0]), np.array([0, 1, 0, 1]),
             np.array([0, 2, 4])),
            shape=(2, 2),
        )
        assert padded.nnz == clean.nnz + 1
        assert matrix_fingerprint(padded) == matrix_fingerprint(clean)

    def test_unsummed_duplicates_do_not_change_the_fingerprint(self):
        clean = sp.csc_matrix(
            np.array([[4.0, 1.0], [1.0, 3.0]])
        )
        # Hand-built CSC with the (0, 0) entry split into 3 + 1.
        data = np.array([3.0, 1.0, 1.0, 1.0, 3.0])
        indices = np.array([0, 0, 1, 0, 1])
        indptr = np.array([0, 3, 5])
        duplicated = sp.csc_matrix((data, indices, indptr), shape=(2, 2))
        assert duplicated.nnz == 5
        assert matrix_fingerprint(duplicated) == matrix_fingerprint(clean)

    def test_value_changes_do_change_the_fingerprint(self):
        matrix = _spd()
        other = matrix.copy()
        other[0, 0] += 1.0e-12
        assert matrix_fingerprint(other) != matrix_fingerprint(matrix)

    def test_input_is_never_mutated(self):
        data = np.array([3.0, 1.0, 0.0, 1.0, 3.0])
        indices = np.array([0, 0, 1, 0, 1])
        indptr = np.array([0, 3, 5])
        matrix = sp.csc_matrix((data, indices, indptr), shape=(2, 2))
        matrix_fingerprint(matrix)
        assert matrix.nnz == 5
        assert np.array_equal(matrix.data, data)


class TestCacheBehavior:
    def test_zero_and_duplicate_variants_hit_one_entry(self):
        """The satellite regression: assembly noise must not defeat the
        cache."""
        cache = FactorizationCache()
        clean = _spd()
        padded = (clean - clean) + clean
        cache.factorize(clean)
        cache.factorize(padded)
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_symmetric_mode_solves_spd_systems(self):
        matrix = _spd(n=30, seed=3)
        rhs = np.arange(30, dtype=float)
        x = checked_splu(matrix).solve(rhs)
        assert np.allclose(matrix @ x, rhs, atol=1e-9)

    def test_lru_eviction_bound(self):
        cache = FactorizationCache(max_entries=2)
        for seed in range(4):
            cache.factorize(_spd(seed=seed))
        assert len(cache) == 2

    def test_invalid_max_entries(self):
        with pytest.raises(SolverError):
            FactorizationCache(max_entries=0)


class TestBackendKeyedIsolation:
    """The backend name is part of the cache key: handles carry
    backend-specific state, so the same fingerprint under two backends
    must yield two independent handles (never cross-backend reuse)."""

    def test_same_fingerprint_two_backends_two_handles(self):
        cache = FactorizationCache()
        matrix = _spd()
        numpy_handle = cache.factorize(matrix, backend="numpy")
        devicesim_handle = cache.factorize(matrix, backend="devicesim")
        assert numpy_handle is not devicesim_handle
        assert numpy_handle.lu is not devicesim_handle.lu
        assert cache.stats() == {"entries": 2, "hits": 0, "misses": 2}

    def test_hit_miss_counters_correct_per_backend(self):
        cache = FactorizationCache()
        matrix = _spd()
        cache.factorize(matrix, backend="numpy")       # miss
        cache.factorize(matrix, backend="numpy")       # hit
        cache.factorize(matrix, backend="devicesim")   # miss: new backend
        cache.factorize(matrix, backend="devicesim")   # hit
        assert cache.stats() == {"entries": 2, "hits": 2, "misses": 2}

    def test_shared_cache_counters_stay_correct_per_backend(self):
        from repro.solvers.cache import shared_cache

        cache = shared_cache()
        matrix = _spd(seed=41)
        before = cache.stats()
        cache.factorize(matrix, backend="numpy")
        cache.factorize(matrix, backend="devicesim")
        middle = cache.stats()
        assert middle["misses"] == before["misses"] + 2
        assert middle["hits"] == before["hits"]
        cache.factorize(matrix, backend="numpy")
        cache.factorize(matrix, backend="devicesim")
        after = cache.stats()
        assert after["hits"] == middle["hits"] + 2
        assert after["misses"] == middle["misses"]

    def test_default_backend_resolution(self):
        cache = FactorizationCache()
        matrix = _spd()
        default_handle = cache.factorize(matrix)
        assert cache.factorize(matrix, backend="numpy") is default_handle
