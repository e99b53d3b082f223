"""Tests for the Sherman-Morrison-Woodbury update solver."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.solvers.woodbury import WoodburySolver


def _base(n, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    return sp.csc_matrix(raw @ raw.T + n * np.eye(n))


def _solver(base, u, **kwargs):
    """A solver with unit nominal conductances stamped into its base."""
    return WoodburySolver(base, u, np.ones(np.shape(u)[-1]), **kwargs)


def _solve_one(solver, conductances, rhs):
    """One ``(k,)`` conductance row and ``(n,)`` rhs via ``solve_batch``."""
    row = np.asarray(conductances, dtype=float).reshape(1, -1)
    return solver.solve_batch(row, rhs)[:, 0]


def _stamp_vectors(n, k, seed=1):
    """Wire-like +1/-1 incidence columns."""
    rng = np.random.default_rng(seed)
    u = np.zeros((n, k))
    for j in range(k):
        a, b = rng.choice(n, size=2, replace=False)
        u[a, j] = 1.0
        u[b, j] = -1.0
    return u


class TestAgainstDirect:
    def test_single_rank_one_update(self, rng):
        n = 10
        base = _base(n)
        u = _stamp_vectors(n, 1)
        solver = _solver(base, u)
        g = np.array([3.7])
        rhs = rng.standard_normal(n)
        direct = np.linalg.solve(
            base.toarray() + g[0] * np.outer(u[:, 0], u[:, 0]), rhs
        )
        assert np.allclose(_solve_one(solver, g, rhs), direct)

    def test_twelve_wires(self, rng):
        """The paper's case: 12 rank-1 wire stamps."""
        n = 40
        base = _base(n)
        u = _stamp_vectors(n, 12)
        solver = _solver(base, u)
        g = rng.uniform(0.1, 20.0, 12)
        rhs = rng.standard_normal(n)
        full = base.toarray() + u @ np.diag(g) @ u.T
        assert np.allclose(_solve_one(solver, g, rhs),
                           np.linalg.solve(full, rhs))

    def test_zero_conductances_fall_back_to_base(self, rng):
        n = 15
        base = _base(n)
        u = _stamp_vectors(n, 3)
        solver = _solver(base, u)
        rhs = rng.standard_normal(n)
        assert np.allclose(
            _solve_one(solver, np.zeros(3), rhs),
            np.linalg.solve(base.toarray(), rhs),
        )

    def test_partial_zeros(self, rng):
        n = 15
        base = _base(n)
        u = _stamp_vectors(n, 3)
        solver = _solver(base, u)
        g = np.array([5.0, 0.0, 2.0])
        rhs = rng.standard_normal(n)
        full = base.toarray() + u @ np.diag(g) @ u.T
        assert np.allclose(_solve_one(solver, g, rhs),
                           np.linalg.solve(full, rhs))

    def test_repeated_solves_with_different_g(self, rng):
        """The Monte Carlo pattern: one base, many conductance sets."""
        n = 25
        base = _base(n)
        u = _stamp_vectors(n, 5)
        solver = _solver(base, u)
        rhs = rng.standard_normal(n)
        for seed in range(5):
            g = np.random.default_rng(seed).uniform(0.5, 10.0, 5)
            full = base.toarray() + u @ np.diag(g) @ u.T
            assert np.allclose(
                _solve_one(solver, g, rhs), np.linalg.solve(full, rhs)
            )


class TestEdgeCases:
    def test_rank_zero_update(self, rng):
        """k = 0 (no wires) degenerates to the plain base solve."""
        n = 12
        base = _base(n)
        solver = _solver(base, np.zeros((n, 0)))
        assert solver.rank == 0
        rhs = rng.standard_normal(n)
        solution = _solve_one(solver, np.zeros(0), rhs)
        assert np.allclose(solution, np.linalg.solve(base.toarray(), rhs))

    def test_rank_zero_rejects_nonempty_conductances(self):
        solver = _solver(_base(6), np.zeros((6, 0)))
        with pytest.raises(SolverError):
            solver.solve_batch([[1.0]], np.ones(6))

    def test_all_zero_conductances_match_direct_sparse(self, rng):
        n = 18
        base = _base(n)
        u = _stamp_vectors(n, 4)
        solver = _solver(base, u)
        rhs = rng.standard_normal(n)
        direct = sp.linalg.spsolve(base.tocsc(), rhs)
        assert np.allclose(_solve_one(solver, np.zeros(4), rhs), direct,
                           rtol=0, atol=1e-10)

    def test_negative_conductance_rejected_even_with_zeros(self):
        solver = _solver(_base(8), _stamp_vectors(8, 3))
        with pytest.raises(SolverError):
            solver.solve_batch([[0.0, -1.0e-12, 2.0]], np.ones(8))

    def test_agreement_with_direct_sparse_solve(self, rng):
        """Woodbury vs a fresh sparse LU of the stamped matrix, 1e-10."""
        n = 30
        base = _base(n)
        u = _stamp_vectors(n, 6)
        solver = _solver(base, u)
        g = rng.uniform(0.1, 50.0, 6)
        rhs = rng.standard_normal(n)
        stamped = (base + sp.csc_matrix(u @ np.diag(g) @ u.T)).tocsc()
        direct = sp.linalg.spsolve(stamped, rhs)
        assert np.allclose(_solve_one(solver, g, rhs), direct,
                           rtol=0, atol=1e-10)

    def test_extreme_conductance_contrast(self, rng):
        """Orders-of-magnitude spread in g (hot vs cold wires) stays exact."""
        n = 20
        base = _base(n)
        u = _stamp_vectors(n, 3)
        solver = _solver(base, u)
        g = np.array([1.0e-8, 1.0, 1.0e6])
        rhs = rng.standard_normal(n)
        full = base.toarray() + u @ np.diag(g) @ u.T
        assert np.allclose(_solve_one(solver, g, rhs),
                           np.linalg.solve(full, rhs), rtol=0, atol=1e-8)


class TestFactorizationCache:
    def test_shared_lu_across_solvers(self, rng):
        from repro.solvers.cache import FactorizationCache

        cache = FactorizationCache()
        base = _base(10)
        u = _stamp_vectors(10, 2)
        first = _solver(base, u, cache=cache)
        second = _solver(base.copy(), u, cache=cache)
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert first._lu is second._lu
        g = rng.uniform(0.5, 5.0, 2)
        rhs = rng.standard_normal(10)
        assert np.array_equal(_solve_one(first, g, rhs),
                              _solve_one(second, g, rhs))

    def test_different_matrices_do_not_collide(self):
        from repro.solvers.cache import FactorizationCache

        cache = FactorizationCache()
        u = np.zeros((10, 0))
        _solver(_base(10, seed=0), u, cache=cache)
        _solver(_base(10, seed=1), u, cache=cache)
        assert cache.stats()["entries"] == 2
        assert cache.stats()["hits"] == 0

    def test_fingerprint_does_not_mutate_input(self):
        from repro.solvers.cache import matrix_fingerprint

        base = _base(6).tocsc()
        # Force unsorted indices via a reversed-permutation construction.
        unsorted = sp.csc_matrix(
            (base.data[::-1],
             base.indices[::-1],
             base.indptr.copy()),
            shape=base.shape,
        )
        unsorted.has_sorted_indices = False
        indices_before = unsorted.indices.copy()
        matrix_fingerprint(unsorted)
        assert np.array_equal(unsorted.indices, indices_before)

    def test_lru_eviction(self):
        from repro.solvers.cache import FactorizationCache

        cache = FactorizationCache(max_entries=2)
        matrices = [_base(8, seed=s) for s in range(3)]
        for matrix in matrices:
            cache.factorize(matrix)
        assert len(cache) == 2
        # The oldest entry was evicted -> refactorized on next request.
        cache.factorize(matrices[0])
        assert cache.stats()["misses"] == 4


class TestValidation:
    def test_negative_conductance_rejected(self):
        solver = _solver(_base(6), _stamp_vectors(6, 2))
        with pytest.raises(SolverError):
            solver.solve_batch([[-1.0, 1.0]], np.ones(6))

    def test_wrong_conductance_count(self):
        solver = _solver(_base(6), _stamp_vectors(6, 2))
        with pytest.raises(SolverError):
            solver.solve_batch([[1.0]], np.ones(6))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SolverError):
            _solver(_base(6), np.zeros((5, 2)))

    def test_1d_update_rejected(self):
        with pytest.raises(SolverError):
            _solver(_base(6), np.zeros(6))


class TestMultiRhs:
    def test_multi_rhs_matches_per_column(self, rng):
        """Five right-hand sides under one conductance row, as five
        repeated rows of a block."""
        n = 20
        solver = _solver(_base(n), _stamp_vectors(n, 4))
        g = rng.uniform(0.5, 8.0, 4)
        rhs = rng.standard_normal((n, 5))
        block = solver.solve_batch(np.tile(g, (5, 1)), rhs)
        assert block.shape == (n, 5)
        for j in range(5):
            assert np.allclose(block[:, j], _solve_one(solver, g, rhs[:, j]),
                               rtol=0, atol=1e-11)

    def test_vector_rhs_gives_one_column_per_row(self, rng):
        n = 12
        solver = _solver(_base(n), _stamp_vectors(n, 2))
        solution = solver.solve_batch(rng.uniform(0.5, 2.0, (3, 2)),
                                      rng.standard_normal(n))
        assert solution.shape == (n, 3)

    def test_rejects_3d_rhs(self):
        solver = _solver(_base(6), _stamp_vectors(6, 2))
        with pytest.raises(SolverError, match="1D .* or 2D"):
            solver.solve_batch(np.ones((2, 2)), np.ones((6, 2, 2)))

    def test_rejects_wrong_row_count(self):
        solver = _solver(_base(6), _stamp_vectors(6, 2))
        with pytest.raises(SolverError, match="unknowns"):
            solver.solve_batch(np.ones((1, 2)), np.ones(7))
        with pytest.raises(SolverError, match="unknowns"):
            solver.solve_batch(np.ones((3, 2)), np.ones((5, 3)))


class TestSolveBatch:
    def test_matches_per_sample_solve_bitwise(self, rng):
        """Column s of the batch == the one-row solve of (g_s, rhs_s) to
        rounding.

        Both run the same capacitance-form algebra; only the multi-RHS
        backsolve and the BLAS-3 correction reorder sums.
        """
        n = 30
        solver = _solver(_base(n), _stamp_vectors(n, 6))
        g_block = rng.uniform(0.2, 20.0, (7, 6))
        rhs_block = rng.standard_normal((n, 7))
        batch = solver.solve_batch(g_block, rhs_block)
        assert batch.shape == (n, 7)
        for s in range(7):
            expected = _solve_one(solver, g_block[s], rhs_block[:, s])
            assert np.allclose(batch[:, s], expected, rtol=1e-12, atol=0.0)

    def test_shared_rhs_is_bitwise_per_sample(self, rng):
        """The electrical hot path: one (n,) RHS shared by every sample.

        Agreement is to rounding (1e-12), not bits: see the test above.
        """
        n = 25
        solver = _solver(_base(n), _stamp_vectors(n, 5))
        g_block = rng.uniform(0.2, 10.0, (9, 5))
        rhs = rng.standard_normal(n)
        batch = solver.solve_batch(g_block, rhs)
        assert batch.shape == (n, 9)
        for s in range(9):
            assert np.allclose(batch[:, s],
                               _solve_one(solver, g_block[s], rhs),
                               rtol=1e-12, atol=0.0)

    def test_single_sample_block(self, rng):
        n = 15
        solver = _solver(_base(n), _stamp_vectors(n, 3))
        g = rng.uniform(0.5, 5.0, (1, 3))
        rhs = rng.standard_normal((n, 1))
        batch = solver.solve_batch(g, rhs)
        assert np.array_equal(batch[:, 0],
                              _solve_one(solver, g[0], rhs[:, 0]))

    def test_heterogeneous_zero_conductances(self, rng):
        """Dropped stamps (``g = 0``) are just ``d = -g0`` in the block."""
        n = 20
        solver = _solver(_base(n), _stamp_vectors(n, 4))
        g_block = rng.uniform(0.5, 5.0, (4, 4))
        g_block[1, 2] = 0.0
        g_block[3, :] = 0.0
        rhs_block = rng.standard_normal((n, 4))
        batch = solver.solve_batch(g_block, rhs_block)
        for s in range(4):
            expected = _solve_one(solver, g_block[s], rhs_block[:, s])
            assert np.allclose(batch[:, s], expected, rtol=0, atol=1e-11)

    def test_all_zero_conductances_return_base_solves(self, rng):
        n = 14
        solver = _solver(_base(n), _stamp_vectors(n, 3))
        rhs_block = rng.standard_normal((n, 3))
        batch = solver.solve_batch(np.zeros((3, 3)), rhs_block)
        for s in range(3):
            assert np.allclose(
                batch[:, s], np.linalg.solve(_base(n).toarray(),
                                             rhs_block[:, s])
            )

    def test_rank_zero_update(self, rng):
        n = 10
        solver = _solver(_base(n), np.zeros((n, 0)))
        rhs_block = rng.standard_normal((n, 4))
        batch = solver.solve_batch(np.zeros((4, 0)), rhs_block)
        assert batch.shape == (n, 4)
        assert np.allclose(batch, np.linalg.solve(_base(n).toarray(),
                                                  rhs_block))

    def test_matches_direct_dense_solves(self, rng):
        n = 22
        base = _base(n)
        u = _stamp_vectors(n, 5)
        solver = _solver(base, u)
        g_block = rng.uniform(0.1, 30.0, (6, 5))
        rhs_block = rng.standard_normal((n, 6))
        batch = solver.solve_batch(g_block, rhs_block)
        for s in range(6):
            full = base.toarray() + u @ np.diag(g_block[s]) @ u.T
            assert np.allclose(batch[:, s],
                               np.linalg.solve(full, rhs_block[:, s]),
                               rtol=0, atol=1e-9)

    def test_rejects_1d_conductances(self):
        solver = _solver(_base(6), _stamp_vectors(6, 2))
        with pytest.raises(SolverError, match="2D"):
            solver.solve_batch(np.ones(2), np.ones((6, 1)))

    def test_rejects_wrong_rank(self):
        solver = _solver(_base(6), _stamp_vectors(6, 2))
        with pytest.raises(SolverError, match="conductances per sample"):
            solver.solve_batch(np.ones((3, 5)), np.ones((6, 3)))

    def test_rejects_negative_conductances(self):
        solver = _solver(_base(6), _stamp_vectors(6, 2))
        g = np.ones((3, 2))
        g[2, 0] = -1.0e-9
        with pytest.raises(SolverError, match="non-negative"):
            solver.solve_batch(g, np.ones((6, 3)))

    def test_rejects_sample_count_mismatch(self):
        solver = _solver(_base(6), _stamp_vectors(6, 2))
        with pytest.raises(SolverError, match="columns"):
            solver.solve_batch(np.ones((3, 2)), np.ones((6, 4)))

    def test_rejects_single_column_where_shared_vector_meant(self):
        # An (n, 1) column for an S>1 block is the classic shared-RHS
        # mistake; the error must point at the 1D (n,) alternative.
        solver = _solver(_base(6), _stamp_vectors(6, 2))
        with pytest.raises(SolverError, match=r"pass a 1D \(n,\) vector"):
            solver.solve_batch(np.ones((3, 2)), np.ones((6, 1)))

    def test_single_column_valid_for_single_sample_block(self, rng):
        # With exactly one sample an (n, 1) rhs IS a legitimate block.
        n = 10
        solver = _solver(_base(n), _stamp_vectors(n, 2))
        g = rng.uniform(0.5, 2.0, (1, 2))
        rhs = rng.standard_normal((n, 1))
        solution = solver.solve_batch(g, rhs)
        assert solution.shape == (n, 1)
        assert np.array_equal(solution[:, 0],
                              _solve_one(solver, g[0], rhs[:, 0]))

    def test_counts_blocked_solves(self, rng):
        from repro.telemetry.tracing import capture

        solver = _solver(_base(8), _stamp_vectors(8, 2))
        with capture() as collector:
            solver.solve_batch(np.ones((2, 2)), rng.standard_normal((8, 2)))
        counters = collector.registry.as_dict()["counters"]
        assert counters.get("solver.blocked_solves") == 1


@given(
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=20, deadline=None)
def test_property_matches_direct_solve(k, seed):
    rng = np.random.default_rng(seed)
    n = 20
    base = _base(n, seed)
    u = _stamp_vectors(n, k, seed + 1)
    solver = _solver(base, u)
    g = rng.uniform(0.0, 10.0, k)
    rhs = rng.standard_normal(n)
    full = base.toarray() + u @ np.diag(g) @ u.T
    assert np.allclose(
        _solve_one(solver, g, rhs), np.linalg.solve(full, rhs), atol=1e-8
    )


# ----------------------------------------------------------------------
# Direct-solve oracle: residual of the stamped system, every entry point
# ----------------------------------------------------------------------
def _relative_residuals(base, u, conductances, solution, rhs):
    """``|A_s x_s - b_s| / |b_s|`` per sample for ``A_s = A0 + U G_s U^T``."""
    rhs = np.broadcast_to(
        rhs[:, None] if rhs.ndim == 1 else rhs, solution.shape
    )
    residuals = []
    for s, g in enumerate(conductances):
        stamped = base @ solution[:, s] + u @ (g * (u.T @ solution[:, s]))
        residuals.append(
            np.linalg.norm(stamped - rhs[:, s]) / np.linalg.norm(rhs[:, s])
        )
    return np.array(residuals)


def _coefficient_solution(solver, conductances, rhs):
    """``x0 - W c`` from :meth:`WoodburySolver.coefficients`.

    ``rhs`` is one shared ``(n,)`` vector (a shared ``(k,)``
    projection) or an ``(n, S)`` block (one projection row per sample).
    """
    x0 = solver.base_solve(rhs)
    projected = solver.update_vectors.T @ x0
    coefficients = solver.coefficients(conductances, projected.T)
    if x0.ndim == 1:
        x0 = x0[:, None]
    return x0 - solver.base_inverse_u @ coefficients.T


def _all_entry_points(solver, conductances, shared, block):
    """``(rhs, solution)`` pairs from one-row, shared, block and
    coefficient solves."""
    scalar = np.column_stack([
        _solve_one(solver, g, block[:, s])
        for s, g in enumerate(conductances)
    ])
    yield block, scalar
    yield shared, solver.solve_batch(conductances, shared)
    yield block, solver.solve_batch(conductances, block)
    yield shared, _coefficient_solution(solver, conductances, shared)
    yield block, _coefficient_solution(solver, conductances, block)


@pytest.fixture(scope="module")
def date16_electrical():
    """The coarse Date16 wire-free electrical system ``(A0, U, b, g0)``.

    Assembled the way the coupled fast path does it: field stiffness
    frozen at the initial temperature, Dirichlet-reduced; ``g0`` are the
    nominal wire conductances.  ``A0`` alone is numerically singular.
    """
    from repro.coupled.electrical import embed_grid_matrix
    from repro.coupled.electrothermal import CoupledSolver
    from repro.package3d.chip_example import build_date16_problem

    problem, _ = build_date16_problem(resolution="coarse")
    solver = CoupledSolver(problem, mode="full")
    initial = np.full(solver.total_size, problem.t_initial)
    sigma, _, _ = solver._field_diagonals(initial[: solver.n_grid])
    stiffness = embed_grid_matrix(
        solver.discretization.stiffness_from_diagonal(sigma),
        solver.total_size,
    )
    base, rhs = solver._reduce_electrical(stiffness)
    u = solver.topology.segment_incidence_matrix()[solver.el_free]
    g0 = solver.topology.segment_electrical_conductances(initial)
    return base, u, rhs, g0


class TestDirectSolveOracle:
    """``|A x - b| / |b| <= 1e-12`` against the explicitly stamped matrix."""

    def test_date16_electrical_system(self, date16_electrical):
        base, u, rhs, g0 = date16_electrical
        rng = np.random.default_rng(16)
        solver = WoodburySolver(base, u, g0)
        # 32 perturbed samples: lengths and temperatures move every
        # wire conductance by up to -40 % / +60 %.
        conductances = g0 * rng.uniform(0.6, 1.6, (32, g0.size))
        for solution in (
            solver.solve_batch(conductances, rhs),
            _coefficient_solution(solver, conductances, rhs),
        ):
            assert _relative_residuals(
                base, u, conductances, solution, rhs
            ).max() <= 1e-12
        # Per-sample right-hand sides: the contact drive at different
        # waveform scales (a random RHS would excite the floating,
        # nearly insulating mold region no solver resolves to 1e-12).
        block = rhs[:, None] * rng.uniform(0.5, 1.5, 4)
        for sample_rhs, solution in _all_entry_points(
            solver, conductances[:4], rhs, block
        ):
            assert _relative_residuals(
                base, u, conductances[:4], solution, sample_rhs
            ).max() <= 1e-12


def _island_system(n_main, n_island, k, seed):
    """A wire-free base plus stamps, some of which reach a node island.

    ``A0`` is SPD on the main nodes and a floating (singular) Laplacian
    path on the island nodes when ``n_island > 0``; the first stamp
    always bridges main and island so ``A_nom`` is SPD.
    """
    rng = np.random.default_rng(seed)
    n = n_main + n_island
    dense = np.zeros((n, n))
    raw = rng.standard_normal((n_main, n_main))
    dense[:n_main, :n_main] = raw @ raw.T / n_main + np.eye(n_main)
    for node in range(n_main, n - 1):
        weight = rng.uniform(0.5, 2.0)
        dense[node:node + 2, node:node + 2] += weight * np.array(
            [[1.0, -1.0], [-1.0, 1.0]]
        )
    u = np.zeros((n, k))
    for j in range(k):
        if j == 0 and n_island:
            a, b = rng.integers(n_main), n_main + rng.integers(n_island)
        else:
            a, b = rng.choice(n, size=2, replace=False)
        u[a, j], u[b, j] = 1.0, -1.0
    bridges = (
        (np.abs(u[:n_main]).sum(axis=0) > 0)
        & (np.abs(u[n_main:]).sum(axis=0) > 0)
    )
    return sp.csc_matrix(dense), u, bridges


@given(
    n_island=st.integers(min_value=0, max_value=4),
    k=st.integers(min_value=1, max_value=6),
    num_samples=st.integers(min_value=1, max_value=4),
    drop_probability=st.sampled_from([0.0, 0.3, 0.7]),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_property_direct_solve_oracle(n_island, k, num_samples,
                                     drop_probability, seed):
    """Random SPD and singular wire-free bases, random stamps, g = 0.

    A sample whose zeroed stamps detach the island is singular and must
    raise; every other sample meets the residual oracle.
    """
    base, u, bridges = _island_system(12, n_island, k, seed)
    rng = np.random.default_rng(seed + 1)
    g0 = rng.uniform(0.5, 2.0, k)
    conductances = g0 * rng.uniform(0.25, 4.0, (num_samples, k))
    conductances[rng.random((num_samples, k)) < drop_probability] = 0.0
    solver = WoodburySolver(base, u, g0)
    detached = np.array([
        n_island > 0 and not np.any(g[bridges] > 0.0) for g in conductances
    ])
    if detached.any():
        with pytest.raises(SolverError, match="singular"):
            solver.solve_batch(conductances, np.ones(base.shape[0]))
        with pytest.raises(SolverError, match="singular"):
            _solve_one(solver, conductances[detached][0],
                       np.ones(base.shape[0]))
        with pytest.raises(SolverError, match="singular"):
            solver.coefficients(conductances, np.ones(k))
        conductances = conductances[~detached]
    if conductances.shape[0]:
        n = base.shape[0]
        for rhs, solution in _all_entry_points(
            solver, conductances, rng.standard_normal(n),
            rng.standard_normal((n, conductances.shape[0])),
        ):
            assert _relative_residuals(
                base, u, conductances, solution, rhs
            ).max() <= 1e-12
