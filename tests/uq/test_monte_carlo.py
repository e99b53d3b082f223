"""Tests for the Monte Carlo driver on cheap surrogate models."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.uq.monte_carlo import MonteCarloStudy, monte_carlo_error
from repro.uq.distributions import NormalDistribution, UniformDistribution
from repro.uq.sampling import latin_hypercube


def _linear_model(parameters):
    """Cheap stand-in: weighted sum of the inputs."""
    weights = np.arange(1, parameters.size + 1, dtype=float)
    return np.array([np.dot(weights, parameters)])


class TestErrorEstimator:
    def test_eq6(self):
        assert monte_carlo_error(4.65, 1000) == pytest.approx(0.147, abs=5e-4)

    def test_vector_std(self):
        errors = monte_carlo_error(np.array([1.0, 2.0]), 4)
        assert np.allclose(errors, [0.5, 1.0])

    def test_invalid_count(self):
        with pytest.raises(SamplingError):
            monte_carlo_error(1.0, 0)


class TestStudy:
    def test_linear_gaussian_closed_form(self):
        """Linear model of iid normals: mean and variance are exact."""
        dimension = 3
        dist = NormalDistribution(2.0, 0.5)
        study = MonteCarloStudy(_linear_model, dist, dimension)
        result = study.run(4000, seed=0)
        weights = np.arange(1, dimension + 1, dtype=float)
        expected_mean = 2.0 * np.sum(weights)
        expected_std = 0.5 * np.linalg.norm(weights)
        assert result.mean[0] == pytest.approx(expected_mean, rel=0.01)
        assert result.std[0] == pytest.approx(expected_std, rel=0.05)

    def test_error_decreases_with_m(self):
        dist = UniformDistribution(0.0, 1.0)
        study = MonteCarloStudy(_linear_model, dist, 2)
        small = study.run(100, seed=0)
        large = study.run(1600, seed=0)
        assert large.error()[0] < small.error()[0]
        # error ~ 1/sqrt(M): factor 4 between M=100 and M=1600.
        assert small.error()[0] / large.error()[0] == pytest.approx(
            4.0, rel=0.35
        )

    def test_keep_samples_enables_quantiles(self):
        dist = UniformDistribution(0.0, 1.0)
        study = MonteCarloStudy(_linear_model, dist, 1)
        result = study.run(500, seed=1, keep_samples=True)
        median = result.quantiles(0.5)
        assert median[0] == pytest.approx(0.5, abs=0.05)

    def test_quantiles_without_samples_rejected(self):
        study = MonteCarloStudy(_linear_model, UniformDistribution(0, 1), 1)
        result = study.run(10, seed=0)
        with pytest.raises(SamplingError):
            result.quantiles(0.5)

    def test_confidence_band(self):
        study = MonteCarloStudy(_linear_model, UniformDistribution(0, 1), 1)
        result = study.run(100, seed=0)
        lower, upper = result.confidence_band(6.0)
        assert np.all(upper - lower == pytest.approx(12.0 * result.std))

    def test_external_uniform_points(self):
        """LHS stream plugs into the same driver (sampling ablation)."""
        study = MonteCarloStudy(_linear_model, UniformDistribution(0, 1), 2)
        points = latin_hypercube(64, 2, seed=0)
        result = study.run(None, uniform_points=points)
        assert result.num_samples == 64

    def test_callback_invoked(self):
        calls = []
        study = MonteCarloStudy(_linear_model, UniformDistribution(0, 1), 1)
        study.run(5, seed=0, callback=lambda i, p, o: calls.append(i))
        assert calls == [0, 1, 2, 3, 4]

    def test_wrong_point_shape(self):
        study = MonteCarloStudy(_linear_model, UniformDistribution(0, 1), 2)
        with pytest.raises(SamplingError):
            study.run(None, uniform_points=np.zeros((10, 3)))

    def test_model_must_be_callable(self):
        with pytest.raises(SamplingError):
            MonteCarloStudy("model", UniformDistribution(0, 1), 1)


class TestConvergenceTrace:
    def test_checkpoints_monotone(self):
        study = MonteCarloStudy(_linear_model, UniformDistribution(0, 1), 2)
        counts, means, stds = study.convergence_trace(200, seed=0)
        assert np.all(np.diff(counts) > 0)
        assert counts[-1] == 200
        assert means.shape == (counts.size, 1)

    def test_estimates_stabilize(self):
        study = MonteCarloStudy(_linear_model, UniformDistribution(0, 1), 1)
        counts, means, _ = study.convergence_trace(
            2000, seed=3, checkpoints=[50, 2000]
        )
        exact = 0.5
        assert abs(means[-1, 0] - exact) < abs(means[0, 0] - exact) + 0.02


def _linear_block(parameters_block):
    return np.stack([_linear_model(row) for row in parameters_block])


class _CountingBlockModel:
    """A model with ``evaluate_block`` that records every call."""

    def __init__(self):
        self.row_calls = 0
        self.block_sizes = []

    def __call__(self, parameters):
        self.row_calls += 1
        return _linear_model(parameters)

    def evaluate_block(self, parameters_block):
        self.block_sizes.append(parameters_block.shape[0])
        return _linear_block(parameters_block)


class TestBlockedEvaluation:
    """One evaluation path: blocks when the model has ``evaluate_block``,
    rows otherwise -- no caller option picks between them."""

    def test_blocked_run_matches_plain_run(self):
        from repro.uq.monte_carlo import BlockedModel

        dist = UniformDistribution(0.0, 1.0)
        model = BlockedModel(_linear_model, _linear_block)
        blocked = MonteCarloStudy(model, dist, 3)
        plain = MonteCarloStudy(_linear_model, dist, 3)
        a = blocked.run(50, seed=5, keep_samples=True)
        b = plain.run(50, seed=5, keep_samples=True)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.mean, b.mean)

    def test_evaluate_block_called_per_block_of_eight(self):
        model = _CountingBlockModel()
        study = MonteCarloStudy(model, UniformDistribution(0, 1), 2)
        result = study.run(19, seed=0)
        assert model.block_sizes == [8, 8, 3]  # ceil(19 / 8) calls
        assert model.row_calls == 0
        assert result.num_samples == 19

    def test_plain_callable_runs_row_by_row(self):
        calls = []

        def model(parameters):
            calls.append(parameters.shape)
            return _linear_model(parameters)

        study = MonteCarloStudy(model, UniformDistribution(0, 1), 2)
        study.run(5, seed=0)
        assert calls == [(2,)] * 5

    def test_uneven_tail_block(self):
        from repro.uq.monte_carlo import BlockedModel

        model = BlockedModel(_linear_model, _linear_block)
        study = MonteCarloStudy(model, UniformDistribution(0, 1), 2)
        result = study.run(11, seed=0, keep_samples=True)
        assert result.samples.shape == (11, 1)

    def test_callback_sees_sample_order(self):
        from repro.uq.monte_carlo import BlockedModel

        calls = []
        model = BlockedModel(_linear_model, _linear_block)
        study = MonteCarloStudy(model, UniformDistribution(0, 1), 1)
        study.run(11, seed=0,
                  callback=lambda i, p, o: calls.append(i))
        assert calls == list(range(11))

    def test_convergence_trace_uses_evaluate_block(self):
        model = _CountingBlockModel()
        blocked = MonteCarloStudy(model, UniformDistribution(0, 1), 2)
        plain = MonteCarloStudy(_linear_model, UniformDistribution(0, 1), 2)
        a = blocked.convergence_trace(20, seed=1, checkpoints=[5, 20])
        b = plain.convergence_trace(20, seed=1, checkpoints=[5, 20])
        assert model.block_sizes == [8, 8, 4]
        assert model.row_calls == 0
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_wrong_output_count_rejected(self):
        from repro.uq.monte_carlo import BlockedModel

        model = BlockedModel(
            _linear_model, lambda block: _linear_block(block)[:-1]
        )
        study = MonteCarloStudy(model, UniformDistribution(0, 1), 1)
        with pytest.raises(SamplingError, match="outputs"):
            study.run(4, seed=0)
        with pytest.raises(SamplingError, match="outputs"):
            study.convergence_trace(4, seed=0)

    def test_blocked_model_validates_callables(self):
        from repro.uq.monte_carlo import BlockedModel

        with pytest.raises(SamplingError):
            BlockedModel("model", _linear_block)
        with pytest.raises(SamplingError):
            BlockedModel(_linear_model, "block")
