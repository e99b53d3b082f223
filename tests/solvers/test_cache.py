"""Tests for the content-addressed factorization cache."""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SolverError
from repro.solvers import cache as cache_module
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


class TestSingleFlight:
    """Concurrent lookups of one matrix factorize it once."""

    def test_concurrent_misses_factorize_once(self):
        num_threads = 8
        size = 20_000
        matrix = sp.diags(
            [-np.ones(size - 1), 4.0 * np.ones(size), -np.ones(size - 1)],
            [-1, 0, 1], format="csc",
        )
        cache = FactorizationCache()
        barrier = threading.Barrier(num_threads, timeout=30.0)
        results = [None] * num_threads

        def lookup(slot):
            barrier.wait()
            results[slot] = cache.factorize(matrix)

        threads = [threading.Thread(target=lookup, args=(slot,))
                   for slot in range(num_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert cache.stats() == {
            "entries": 1, "hits": num_threads - 1, "misses": 1,
        }
        assert all(lu is results[0] for lu in results)

    def test_failed_factorization_is_not_cached_and_wakes_waiters(
            self, monkeypatch):
        started = threading.Event()
        release = threading.Event()
        calls = []

        def fail_first(matrix):
            calls.append(matrix)
            if len(calls) == 1:
                started.set()
                release.wait()
                raise SolverError("base LU factorization failed: injected")
            return checked_splu(matrix)

        monkeypatch.setattr(cache_module, "checked_splu", fail_first)
        cache = FactorizationCache()
        matrix = _spd()
        outcomes = {}

        def lookup(name):
            try:
                outcomes[name] = cache.factorize(matrix)
            except SolverError as exc:
                outcomes[name] = exc

        owner = threading.Thread(target=lookup, args=("owner",))
        owner.start()
        assert started.wait(timeout=30.0)
        waiter = threading.Thread(target=lookup, args=("waiter",))
        waiter.start()
        release.set()
        for thread in (owner, waiter):
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert isinstance(outcomes["owner"], SolverError)
        assert cache.factorize(matrix) is outcomes["waiter"]
        assert len(calls) == 2
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 2}
