"""Tests for the caching sparse solver."""

import numpy as np
import pytest
import scipy.sparse as sp

import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.solvers.linear import LinearSolver, solve_sparse


def _spd_matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    return sp.csc_matrix(raw @ raw.T + n * np.eye(n))


class TestSolveSparse:
    def test_identity(self):
        solution = solve_sparse(sp.identity(4, format="csc"), np.arange(4.0))
        assert np.allclose(solution, np.arange(4.0))

    def test_random_spd(self, rng):
        matrix = _spd_matrix(10)
        x_true = rng.standard_normal(10)
        solution = solve_sparse(matrix, matrix @ x_true)
        assert np.allclose(solution, x_true)


class TestLinearSolverCaching:
    def test_refactorizes_only_on_change(self):
        solver = LinearSolver()
        matrix = _spd_matrix(8)
        rhs = np.ones(8)
        solver.solve(matrix, rhs)
        solver.solve(matrix, 2.0 * rhs)
        assert solver.factorization_count == 1
        assert solver.solve_count == 2

    def test_refactorizes_on_value_change(self):
        solver = LinearSolver()
        matrix = _spd_matrix(8)
        solver.solve(matrix, np.ones(8))
        changed = matrix.copy()
        changed[0, 0] += 1.0
        solver.solve(changed.tocsc(), np.ones(8))
        assert solver.factorization_count == 2

    def test_correct_after_cache_reuse(self, rng):
        solver = LinearSolver()
        matrix = _spd_matrix(12)
        for _ in range(3):
            x_true = rng.standard_normal(12)
            solution = solver.solve(matrix, matrix @ x_true)
            assert np.allclose(solution, x_true)
        assert solver.factorization_count == 1

    def test_invalidate_forces_refactorization(self):
        solver = LinearSolver()
        matrix = _spd_matrix(8)
        solver.solve(matrix, np.ones(8))
        solver.invalidate()
        solver.solve(matrix, np.ones(8))
        assert solver.factorization_count == 2

    def test_exact_change_detection(self):
        """A value swap that keeps the sum and abs-sum still refactorizes.

        Swapping two off-diagonal values preserves ``nnz``, ``sum`` and
        ``abs-sum``; the solver must still see a new matrix.
        """
        solver = LinearSolver()
        matrix = sp.csc_matrix(
            np.array([[4.0, 1.0, 2.0], [1.0, 5.0, 0.5], [2.0, 0.5, 6.0]])
        )
        swapped = sp.csc_matrix(
            np.array([[4.0, 2.0, 1.0], [2.0, 5.0, 0.5], [1.0, 0.5, 6.0]])
        )
        rhs = np.ones(3)
        solver.solve(matrix, rhs)
        solution = solver.solve(swapped, rhs)
        assert solver.factorization_count == 2
        assert np.max(np.abs(swapped @ solution - rhs)) <= 1e-12

    def test_rhs_size_mismatch(self):
        solver = LinearSolver()
        with pytest.raises(SolverError):
            solver.solve(_spd_matrix(4), np.ones(5))

    def test_non_symmetric_matrix_rejected(self):
        """Symmetric-mode SuperLU is the only factorization path; a
        non-symmetric matrix raises instead of being solved wrongly."""
        solver = LinearSolver()
        matrix = _spd_matrix(6).tolil()
        matrix[0, 1] += 1e-9
        with pytest.raises(SolverError, match="not symmetric"):
            solver.solve(matrix.tocsc(), np.ones(6))
        assert solver.factorization_count == 0



def _apply(dense, operation):
    """Apply one change (or none) to a symmetric diagonally dominant matrix."""
    kind, first, second = operation
    n = dense.shape[0]
    changed = dense.copy()
    if kind == "shift":
        changed[first % n, first % n] += 1.0 + second % 4
    elif kind == "swap":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        (i, j), (k, m) = pairs[first % len(pairs)], pairs[second % len(pairs)]
        changed[i, j], changed[k, m] = dense[k, m], dense[i, j]
        changed[j, i], changed[m, k] = changed[i, j], changed[k, m]
    return changed


_operations = st.tuples(
    st.sampled_from(["same", "shift", "swap"]),
    st.integers(0, 20),
    st.integers(0, 20),
)


class TestLinearSolverReuseProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 6),
        seed=st.integers(0, 2**16),
        operations=st.lists(_operations, min_size=1, max_size=8),
    )
    def test_matches_spsolve_and_counts_changes(self, n, seed, operations):
        """Swaps keep nnz, sum and abs-sum exact (integer values), so only
        an exact change test refactorizes on them."""
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(1, 10, (n, n)) * rng.choice([-1, 1], (n, n)), 1)
        dense = (upper + upper.T).astype(float)
        np.fill_diagonal(dense, 10.0 * n)
        solver = LinearSolver()
        changes = 0
        previous = None
        for operation in operations:
            dense = _apply(dense, operation)
            if previous is None or not np.array_equal(dense, previous):
                changes += 1
            previous = dense
            matrix = sp.csc_matrix(dense)
            rhs = rng.standard_normal(n)
            np.testing.assert_allclose(
                solver.solve(matrix, rhs), spla.spsolve(matrix, rhs), rtol=1e-10
            )
        assert solver.factorization_count == changes
