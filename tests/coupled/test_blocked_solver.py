"""Tests for the sample-blocked coupled transient solver.

Blocked and per-sample traces run the same fast step (S samples vs
S = 1), so they agree to one tolerance (1e-10 relative) and with
identical fixed-point iteration counts.  The
``bitwise`` test names are historical: only the summation order of the
batched products separates the two.  The independent check of the step
is the full-mode oracle in ``test_electrothermal.py``.
"""

import numpy as np
import pytest

from repro.coupled.electrothermal import (
    BlockedCoupledSolver,
    BlockedTransientResult,
    CoupledSolver,
)
from repro.errors import SolverError
from repro.solvers.time_integration import TimeGrid

from .conftest import MM, build_wire_bridge_problem


#: Blocked vs per-sample agreement, relative to the trace's magnitude.
RTOL = 1.0e-10


def _assert_close(actual, expected):
    expected = np.asarray(expected, dtype=float)
    scale = float(np.max(np.abs(expected))) if expected.size else 1.0
    np.testing.assert_allclose(
        np.asarray(actual, dtype=float), expected,
        rtol=RTOL, atol=RTOL * scale,
    )


def _solver(problem=None, **kwargs):
    problem = problem or build_wire_bridge_problem()
    kwargs.setdefault("mode", "fast")
    kwargs.setdefault("tolerance", 1.0e-6)
    return CoupledSolver(problem, **kwargs)


def _length_block():
    return np.array([[1.40 * MM], [1.55 * MM], [1.80 * MM]])


class TestConstruction:
    def test_requires_coupled_solver(self):
        with pytest.raises(SolverError, match="CoupledSolver"):
            BlockedCoupledSolver(object())

    def test_rejects_full_mode(self):
        solver = _solver(mode="full")
        with pytest.raises(SolverError, match="fast"):
            BlockedCoupledSolver(solver)

    def test_rejects_multi_segment_wires(self):
        solver = _solver(build_wire_bridge_problem(num_segments=3))
        with pytest.raises(SolverError, match="single-segment"):
            BlockedCoupledSolver(solver)


class TestValidation:
    def test_length_block_shape(self):
        blocked = BlockedCoupledSolver(_solver())
        with pytest.raises(SolverError, match="length block"):
            blocked.set_wire_lengths_block(np.ones(3))
        with pytest.raises(SolverError, match="length block"):
            blocked.set_wire_lengths_block(np.ones((3, 2)))

    def test_positive_lengths(self):
        blocked = BlockedCoupledSolver(_solver())
        with pytest.raises(SolverError, match="positive"):
            blocked.set_wire_lengths_block(np.array([[1.0e-3], [0.0]]))

    def test_solve_requires_bound_lengths(self):
        blocked = BlockedCoupledSolver(_solver())
        with pytest.raises(SolverError, match="set_wire_lengths_block"):
            blocked.solve_transient_block(TimeGrid(1.0, 2))

    def test_solve_requires_time_grid(self):
        blocked = BlockedCoupledSolver(_solver())
        blocked.set_wire_lengths_block(_length_block())
        with pytest.raises(SolverError, match="TimeGrid"):
            blocked.solve_transient_block([0.0, 1.0])


class TestAgainstPerSample:
    def _compare(self, problem, grid, lengths, waveform=None, **kwargs):
        solver = _solver(problem, **kwargs)
        blocked = BlockedCoupledSolver(solver)
        blocked.set_wire_lengths_block(lengths)
        block = blocked.solve_transient_block(grid, waveform=waveform)
        assert isinstance(block, BlockedTransientResult)
        assert block.num_samples == lengths.shape[0]
        for s, row in enumerate(lengths):
            solver.set_wire_lengths(row)
            reference = solver.solve_transient(grid, waveform=waveform)
            _assert_close(
                block.wire_temperatures[s],
                np.asarray(reference.wire_temperatures),
            )
            _assert_close(
                block.wire_peak_temperatures[s],
                np.asarray(reference.wire_peak_temperatures),
            )
            _assert_close(
                block.wire_powers[s], np.asarray(reference.wire_powers)
            )
            _assert_close(
                block.field_joule_power[s],
                np.asarray(reference.field_joule_power),
            )
            _assert_close(
                block.final_temperatures[s], reference.final_temperatures
            )
            assert list(block.iterations_per_step[s]) == list(
                reference.iterations_per_step
            )

    def test_bitwise_equivalence_wire_bridge(self):
        self._compare(
            build_wire_bridge_problem(), TimeGrid(2.0, 4), _length_block()
        )

    def test_bitwise_equivalence_with_radiation(self):
        self._compare(
            build_wire_bridge_problem(radiation=True),
            TimeGrid(2.0, 3),
            _length_block(),
        )

    def test_bitwise_equivalence_with_waveform(self):
        from repro.coupled.excitation import StepWaveform

        self._compare(
            build_wire_bridge_problem(),
            TimeGrid(2.0, 3),
            _length_block(),
            waveform=StepWaveform(t_on=0.5, scale=0.8),
        )

    def test_single_sample_block(self):
        self._compare(
            build_wire_bridge_problem(), TimeGrid(1.0, 2),
            np.array([[1.55 * MM]]),
        )


class TestDiagnostics:
    def test_result_shapes(self):
        solver = _solver()
        blocked = BlockedCoupledSolver(solver)
        blocked.set_wire_lengths_block(_length_block())
        grid = TimeGrid(1.0, 3)
        result = blocked.solve_transient_block(grid)
        assert result.wire_temperatures.shape == (3, 4, 1)
        assert result.wire_powers.shape == (3, 4, 1)
        assert result.field_joule_power.shape == (3, 4)
        assert result.final_temperatures.shape == (3, solver.total_size)
        assert result.iterations_per_step.shape == (3, 3)
        assert np.all(result.iterations_per_step >= 1)

    def test_blocked_step_metrics(self):
        solver = _solver()
        blocked = BlockedCoupledSolver(solver)
        blocked.set_wire_lengths_block(_length_block())
        before = solver.metrics.as_dict()["counters"].get("coupled_steps", 0)
        blocked.solve_transient_block(TimeGrid(1.0, 2))
        counters = solver.metrics.as_dict()["counters"]
        # Two time steps x three samples count as per-sample step work...
        assert counters.get("coupled_steps", 0) - before == 6
        # ... folded into two blocked step invocations.
        assert counters.get("blocked_steps", 0) == 2

    def test_nonconvergence_reports_blocked_samples(self):
        solver = _solver(max_iterations=1, tolerance=1.0e-14)
        blocked = BlockedCoupledSolver(solver)
        blocked.set_wire_lengths_block(_length_block())
        from repro.errors import ConvergenceError

        with pytest.raises(ConvergenceError, match="blocked samples"):
            blocked.solve_transient_block(TimeGrid(1.0, 2))
