"""Tests for the fixed-point iteration."""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.solvers.newton import fixed_point


class TestFixedPoint:
    def test_linear_contraction(self):
        result = fixed_point(lambda x: 0.5 * x + 1.0, np.array([0.0]),
                             tolerance=1e-12)
        assert result.converged
        assert result.solution[0] == pytest.approx(2.0)

    def test_vector_contraction(self):
        matrix = np.array([[0.3, 0.1], [0.0, 0.4]])
        offset = np.array([1.0, 2.0])
        result = fixed_point(
            lambda x: matrix @ x + offset, np.zeros(2), tolerance=1e-12
        )
        expected = np.linalg.solve(np.eye(2) - matrix, offset)
        assert np.allclose(result.solution, expected)

    def test_damping_stabilizes_divergent_map(self):
        """x <- -1.5 x + 5 diverges plainly but converges with damping."""
        with pytest.raises(ConvergenceError):
            fixed_point(lambda x: -1.5 * x + 5.0, np.array([0.0]),
                        max_iterations=60)
        result = fixed_point(
            lambda x: -1.5 * x + 5.0, np.array([0.0]), damping=0.5,
            max_iterations=200, tolerance=1e-10,
        )
        assert result.solution[0] == pytest.approx(2.0)

    def test_failure_without_raise(self):
        result = fixed_point(
            lambda x: x + 1.0, np.array([0.0]), max_iterations=5,
            raise_on_failure=False,
        )
        assert not result.converged
        assert result.iterations == 5

    def test_history_recorded(self):
        result = fixed_point(lambda x: 0.5 * x, np.array([8.0]),
                             tolerance=1e-10)
        assert len(result.history) == result.iterations
        assert all(
            b < a for a, b in zip(result.history, result.history[1:])
        )

    def test_invalid_damping(self):
        with pytest.raises(ValueError):
            fixed_point(lambda x: x, np.array([0.0]), damping=0.0)

    def test_immediate_convergence_at_fixed_point(self):
        result = fixed_point(lambda x: x, np.array([3.0]))
        assert result.converged
        assert result.iterations == 1
