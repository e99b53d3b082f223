"""Tests for the adaptive implicit Euler controller."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.solvers.adaptive import (
    adaptive_implicit_euler,
    dt_ladder,
    snap_to_ladder,
)


def _decay_step(rate):
    """Implicit Euler step for dT/dt = -rate (T - 300)."""
    def step(state, dt):
        return (state + dt * rate * 300.0) / (1.0 + dt * rate)

    return step


class TestDecay:
    def test_converges_to_exact(self):
        result = adaptive_implicit_euler(
            _decay_step(0.5), np.array([400.0]), end_time=10.0,
            initial_dt=0.5, tolerance=1e-3,
        )
        exact = 300.0 + 100.0 * np.exp(-5.0)
        assert result.final[0] == pytest.approx(exact, abs=0.2)
        assert result.times[-1] == pytest.approx(10.0)

    def test_tighter_tolerance_more_accurate(self):
        exact = 300.0 + 100.0 * np.exp(-5.0)
        loose = adaptive_implicit_euler(
            _decay_step(0.5), np.array([400.0]), 10.0, 0.5, tolerance=1.0
        )
        tight = adaptive_implicit_euler(
            _decay_step(0.5), np.array([400.0]), 10.0, 0.5, tolerance=1e-4
        )
        assert abs(tight.final[0] - exact) < abs(loose.final[0] - exact)
        assert tight.accepted > loose.accepted

    def test_steps_grow_as_transient_settles(self):
        result = adaptive_implicit_euler(
            _decay_step(2.0), np.array([500.0]), 20.0, 0.01,
            tolerance=0.05,
        )
        sizes = result.step_sizes
        # Late steps should be much larger than the first accepted ones.
        assert np.mean(sizes[-3:]) > 3.0 * np.mean(sizes[:3])

    def test_rejections_counted_for_rough_start(self):
        result = adaptive_implicit_euler(
            _decay_step(50.0), np.array([1000.0]), 1.0, 0.5,
            tolerance=0.01,
        )
        assert result.rejected >= 1
        assert result.times[-1] == pytest.approx(1.0)


class TestMinDtContract:
    """Hitting min_dt with an uncontrolled error must raise -- the
    documented contract -- unless acceptance is explicitly requested."""

    @staticmethod
    def _inconsistent_step(state, dt):
        # Full step and two half steps disagree by dt^2 / 2 forever, so
        # the doubling error estimate can never fall below ~dt^2 / 2.
        return state + dt * dt

    def test_uncontrolled_error_at_min_dt_raises(self):
        with pytest.raises(SolverError, match="min_dt"):
            adaptive_implicit_euler(
                self._inconsistent_step, np.array([0.0]), end_time=1.0,
                initial_dt=0.5, tolerance=1e-9, min_dt=1e-2,
            )

    def test_explicit_flag_accepts_and_records(self):
        result = adaptive_implicit_euler(
            self._inconsistent_step, np.array([0.0]), end_time=0.1,
            initial_dt=0.05, tolerance=1e-9, min_dt=1e-2,
            accept_min_dt_steps=True,
        )
        assert result.times[-1] == pytest.approx(0.1)
        assert result.num_min_dt_violations >= 1
        for time, error in result.min_dt_violations:
            assert 0.0 < time <= 0.1 + 1e-12
            assert error > 1e-9
        assert "min_dt violations" in repr(result)

    def test_controlled_runs_record_no_violations(self):
        result = adaptive_implicit_euler(
            _decay_step(0.5), np.array([400.0]), end_time=10.0,
            initial_dt=0.5, tolerance=1e-3,
        )
        assert result.num_min_dt_violations == 0


class TestResultRepr:
    def test_empty_step_sizes_do_not_raise(self):
        from repro.solvers.adaptive import AdaptiveStepResult

        result = AdaptiveStepResult([0.0], [np.array([1.0])], 0, 3, [])
        text = repr(result)
        assert "0 accepted" in text
        assert "3 rejected" in text

    def test_populated_repr_shows_step_range(self):
        result = adaptive_implicit_euler(
            _decay_step(0.5), np.array([400.0]), end_time=5.0,
            initial_dt=0.5, tolerance=1e-3,
        )
        assert "dt in [" in repr(result)


class TestValidation:
    def test_bad_arguments(self):
        with pytest.raises(SolverError):
            adaptive_implicit_euler(
                _decay_step(1.0), np.array([1.0]), -1.0, 0.1
            )
        with pytest.raises(SolverError):
            adaptive_implicit_euler(
                _decay_step(1.0), np.array([1.0]), 1.0, 0.1, safety=1.5
            )

    def test_max_steps_guard(self):
        with pytest.raises(SolverError):
            adaptive_implicit_euler(
                _decay_step(1.0), np.array([400.0]), 1e9, 1e-3,
                tolerance=1e-9, max_steps=10, max_dt=1e-3,
            )


class TestDtLadder:
    def test_rungs_are_powers_of_two_within_clamps(self):
        ladder = dt_ladder(1.0, 0.1, 10.0)
        assert list(ladder) == [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]

    def test_initial_dt_clamped_into_interval(self):
        assert dt_ladder(100.0, 0.5, 4.0)[-1] == 4.0
        assert dt_ladder(1e-9, 0.5, 4.0)[0] == 0.5

    def test_ladder_never_empty(self):
        assert dt_ladder(1.0, 1.0, 1.0).size == 1

    def test_snap_nearest_in_log_space(self):
        ladder = dt_ladder(1.0, 0.1, 10.0)
        # Below the geometric mean of 2 and 4 (~2.83) snaps down...
        assert snap_to_ladder(2.7, ladder) == 2.0
        # ...above it snaps up.
        assert snap_to_ladder(3.0, ladder) == 4.0
        assert snap_to_ladder(2.0, ladder) == 2.0
        # Out-of-range proposals clamp to the end rungs.
        assert snap_to_ladder(1e-6, ladder) == ladder[0]
        assert snap_to_ladder(1e6, ladder) == ladder[-1]


class TestQuantizedIntegration:
    def test_visits_only_a_handful_of_distinct_dts(self):
        """The tentpole property: O(#rungs) distinct solver dts, not
        O(#solves) -- so per-dt factorization caches amortize."""
        raw = adaptive_implicit_euler(
            _decay_step(2.0), np.array([500.0]), 20.0, 0.01,
            tolerance=0.05,
        )
        quantized = adaptive_implicit_euler(
            _decay_step(2.0), np.array([500.0]), 20.0, 0.01,
            tolerance=0.05, quantize_dt=True,
        )
        ladder = dt_ladder(0.01, 1.0e-6, 20.0)
        # Every solver dt is a rung, a half rung, or the final sliver.
        rungs = set(np.round(ladder, 12)) | set(np.round(ladder / 2, 12))
        off_ladder = [
            dt for dt in quantized.solver_dts
            if round(float(dt), 12) not in rungs
        ]
        assert len(off_ladder) <= 1  # at most the end-of-horizon sliver
        assert quantized.num_distinct_solver_dts < ladder.size + 2
        # The raw controller mints a fresh dt almost every update.
        assert raw.num_distinct_solver_dts > quantized.num_distinct_solver_dts
        # Accuracy is preserved (snapping only moves within a factor ~2).
        exact = 300.0 + 200.0 * np.exp(-40.0)
        assert quantized.final[0] == pytest.approx(exact, abs=1.0)
        assert quantized.times[-1] == pytest.approx(20.0)

    def test_horizon_tail_stays_on_the_ladder(self):
        """A non-dyadic horizon is walked down on rungs instead of
        minting one off-ladder sliver step per integration."""
        result = adaptive_implicit_euler(
            _decay_step(0.1), np.array([400.0]), 7.3, 1.0,
            tolerance=10.0, quantize_dt=True, min_dt=0.5,
        )
        ladder = set(dt_ladder(1.0, 0.5, 7.3)) | {0.5}
        on_ladder = [float(dt) in ladder for dt in result.step_sizes]
        # Everything except (possibly) the final sub-floor sliver.
        assert all(on_ladder[:-1])
        assert result.times[-1] == pytest.approx(7.3)

    def test_doubling_midpoints_are_recorded(self):
        """Accepted doubling steps keep their (already computed) half
        state, halving the interpolation error for free."""
        result = adaptive_implicit_euler(
            _decay_step(0.5), np.array([400.0]), 4.0, 1.0,
            tolerance=1e3,  # accept everything
        )
        assert result.accepted >= 1
        first_dt = result.step_sizes[0]
        assert result.times[1] == pytest.approx(0.5 * first_dt)
        assert len(result.times) == 1 + 2 * result.accepted


class TestPredictorEstimate:
    def test_converges_to_exact(self):
        result = adaptive_implicit_euler(
            _decay_step(0.5), np.array([400.0]), 10.0, 0.5,
            tolerance=1e-3, error_estimate="predictor",
        )
        exact = 300.0 + 100.0 * np.exp(-5.0)
        assert result.final[0] == pytest.approx(exact, abs=0.2)
        assert result.times[-1] == pytest.approx(10.0)

    def test_one_solve_per_attempt_after_bootstrap(self):
        doubling = adaptive_implicit_euler(
            _decay_step(0.5), np.array([400.0]), 10.0, 0.5,
            tolerance=1e-3,
        )
        predictor = adaptive_implicit_euler(
            _decay_step(0.5), np.array([400.0]), 10.0, 0.5,
            tolerance=1e-3, error_estimate="predictor",
        )
        attempts = predictor.accepted + predictor.rejected
        # First attempt costs 3 (doubling bootstrap), the rest 1 each.
        assert predictor.num_solves == attempts + 2
        assert doubling.num_solves == 3 * (doubling.accepted
                                           + doubling.rejected)
        assert predictor.num_solves < doubling.num_solves

    def test_guess_keyword_receives_the_linear_predictor(self):
        guesses = []

        def step(state, dt, guess=None):
            guesses.append(guess)
            return (state + dt * 0.5 * 300.0) / (1.0 + dt * 0.5)

        result = adaptive_implicit_euler(
            step, np.array([400.0]), 10.0, 0.5,
            tolerance=1e-3, error_estimate="predictor",
        )
        assert result.times[-1] == pytest.approx(10.0)
        received = [g for g in guesses if g is not None]
        assert received  # warm starts actually arrive
        # The predictor extrapolates toward the fixed point, never away.
        assert all(np.all(g <= 400.0 + 1e-9) for g in received)

    def test_same_dt_retry_cannot_self_compare(self):
        """Regression: after a rejection the history rate is anchored
        at the unchanged state, so a retry at the SAME dt (a pinned
        horizon sliver) would estimate its error against itself as ~0
        and silently accept an uncontrollable step.  The controller
        must fall back to doubling there and keep the min_dt
        contract."""

        def step(state, dt):
            value = (state + dt * 0.5 * 300.0) / (1.0 + dt * 0.5)
            if dt < 9e-3:
                return value + 1000.0  # persistently inconsistent sliver
            return value

        with pytest.raises(SolverError, match="min_dt"):
            adaptive_implicit_euler(
                step, np.array([400.0]), 1.005, 0.5,
                tolerance=3.0, min_dt=1e-2, max_dt=0.5,
                error_estimate="predictor",
            )

    def test_unknown_estimate_rejected(self):
        with pytest.raises(SolverError, match="error_estimate"):
            adaptive_implicit_euler(
                _decay_step(0.5), np.array([400.0]), 1.0, 0.5,
                error_estimate="magic",
            )


class TestHorizonClampVsMinDtFloor:
    """The end-of-horizon clamp may shorten the final step below
    ``min_dt``; that is NOT the uncontrollable-error condition."""

    def test_sub_min_dt_sliver_accepted_cleanly(self):
        # Two 0.5 steps, then a 5e-3 sliver below min_dt = 1e-2.
        result = adaptive_implicit_euler(
            _decay_step(0.5), np.array([400.0]), 1.005, 0.5,
            tolerance=0.5, min_dt=1e-2, max_dt=0.5,
        )
        assert result.times[-1] == pytest.approx(1.005)
        assert result.num_min_dt_violations == 0

    def test_zero_error_sliver_finishes_cleanly(self):
        """Regression: growing dt from an accepted zero-error sub-min_dt
        sliver must not trip the below-min_dt guard on a finished
        integration (a stationary tail returns the state unchanged)."""
        result = adaptive_implicit_euler(
            lambda state, dt: state, np.array([300.0]), 1.001, 0.5,
            tolerance=0.5, min_dt=1e-2, max_dt=0.5,
        )
        assert result.times[-1] == pytest.approx(1.001)
        assert result.num_min_dt_violations == 0

    def test_noisy_sliver_is_rejected_not_fatal(self):
        """Regression: a sliver step whose first error estimate exceeds
        the tolerance used to raise a spurious min_dt SolverError; it
        must be treated as an ordinary rejection (the controller never
        tried its floor) and succeed on the clean retry."""
        noisy = {"armed": True}

        def step(state, dt):
            value = (state + dt * 0.5 * 300.0) / (1.0 + dt * 0.5)
            if dt < 9e-3 and noisy["armed"]:
                noisy["armed"] = False
                return value + 5.0  # one-off solver hiccup
            return value

        result = adaptive_implicit_euler(
            step, np.array([400.0]), 1.005, 0.5,
            tolerance=0.5, min_dt=1e-2, max_dt=0.5,
        )
        assert result.times[-1] == pytest.approx(1.005)
        assert result.rejected >= 1
        assert result.num_min_dt_violations == 0

    def test_genuine_floor_still_raises_at_the_horizon(self):
        """A persistent uncontrolled error at the floor keeps the
        documented contract even when the horizon also clamps."""

        def bad_step(state, dt):
            return state + 1.0  # doubling error 1.0 at every dt

        with pytest.raises(SolverError, match="min_dt"):
            adaptive_implicit_euler(
                bad_step, np.array([0.0]), 1.005, 0.5,
                tolerance=0.5, min_dt=1e-2, max_dt=0.5,
            )


class TestStatistics:
    def test_solve_and_distinct_dt_counters(self):
        result = adaptive_implicit_euler(
            _decay_step(0.5), np.array([400.0]), 10.0, 0.5,
            tolerance=1e-3,
        )
        assert result.num_solves == 3 * (result.accepted + result.rejected)
        assert result.num_distinct_solver_dts == result.solver_dts.size
        stats = result.statistics()
        for key in ("accepted", "rejected", "num_solves",
                    "num_distinct_solver_dts", "dt_min", "dt_max"):
            assert key in stats
        assert "solves" in repr(result)

    def test_solver_stats_merge_into_statistics(self):
        result = adaptive_implicit_euler(
            _decay_step(0.5), np.array([400.0]), 1.0, 0.5, tolerance=1.0,
        )
        result.solver_stats = {"thermal_solver_builds": 3}
        assert result.statistics()["thermal_solver_builds"] == 3


class TestCoupledIntegration:
    def test_adaptive_wraps_coupled_step(self):
        """The coupled solver's step plugs straight into the controller."""
        from repro.coupled.electrothermal import CoupledSolver

        from tests.coupled.conftest import build_wire_bridge_problem

        problem = build_wire_bridge_problem()
        solver = CoupledSolver(problem, mode="fast", tolerance=1e-4)

        result = adaptive_implicit_euler(
            solver.step_once,
            problem.initial_temperatures(),
            end_time=10.0,
            initial_dt=0.5,
            tolerance=0.2,
        )
        final_wire = problem.topology.wire_temperatures(result.final)[0]

        from repro.solvers.time_integration import TimeGrid

        fixed = CoupledSolver(
            problem, mode="fast", tolerance=1e-4
        ).solve_transient(TimeGrid(10.0, 100))
        # Local tolerance 0.2 K over ~10 accepted steps: the accumulated
        # global error stays within ~1.5 K of the fine fixed-step run.
        assert final_wire == pytest.approx(
            fixed.wire_temperatures[-1, 0], abs=1.5
        )
