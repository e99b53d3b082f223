"""The Monte Carlo study driver (Section IV-C of the paper).

``MonteCarloStudy`` repeatedly evaluates a model on parameter samples and
accumulates vector-valued outputs with Welford statistics; the result
exposes the paper's estimators: per-output expectation, standard deviation
and the ``sigma / sqrt(M)`` error (eq. (6)).
"""

import numpy as np

from ..errors import SamplingError
from .sampling import map_to_distributions, random_sampler
from .statistics import RunningStatistics


class BlockedModel:
    """Pair a per-sample model with its vectorized block evaluator.

    The campaign executor (and :meth:`MonteCarloStudy.run` with
    ``block_size``) duck-type on a callable ``evaluate_block`` attribute:
    given an ``(S, d)`` parameter block it must return the ``S`` stacked
    outputs ``(S, *output_shape)``.  Plain callables cannot carry
    attributes when they are bound methods, so this tiny wrapper holds
    the pair -- calling it evaluates one sample, ``evaluate_block``
    evaluates a whole block.

    For introspection convenience the wrapped model's ``__self__`` (when
    it is a bound method) is re-exposed, so ``model.__self__`` still
    reaches the owning study.
    """

    def __init__(self, model, evaluate_block, array_backend=None):
        if not callable(model) or not callable(evaluate_block):
            raise SamplingError(
                "BlockedModel needs a callable model and a callable "
                "evaluate_block"
            )
        self._model = model
        self.evaluate_block = evaluate_block
        #: Array-backend name the block evaluator solves through (when
        #: known) -- the campaign executor duck-types on this attribute
        #: to label its block telemetry.
        self.array_backend = array_backend
        owner = getattr(model, "__self__", None)
        if owner is not None:
            self.__self__ = owner

    def __call__(self, parameters):
        return self._model(parameters)

    def __repr__(self):
        return f"BlockedModel({self._model!r})"


def monte_carlo_error(std, num_samples):
    """The paper's eq. (6): ``error_MC = sigma_MC / sqrt(M)``."""
    num_samples = int(num_samples)
    if num_samples < 1:
        raise SamplingError(f"num_samples must be >= 1, got {num_samples}")
    return np.asarray(std, dtype=float) / np.sqrt(num_samples)


class MonteCarloResult:
    """Accumulated statistics of one study.

    Attributes
    ----------
    mean, std:
        Arrays shaped like one model output.
    num_samples:
        The sample count ``M``.
    samples:
        Optional ``(M, *output_shape)`` array of raw outputs (present when
        the study was run with ``keep_samples=True``).
    parameters:
        The ``(M, d)`` parameter matrix actually used.
    """

    def __init__(self, statistics, parameters, samples=None):
        self._stats = statistics
        self.parameters = parameters
        self.samples = samples

    @property
    def num_samples(self):
        return self._stats.count

    @property
    def mean(self):
        return self._stats.mean

    @property
    def std(self):
        return self._stats.std()

    @property
    def minimum(self):
        return self._stats.minimum

    @property
    def maximum(self):
        return self._stats.maximum

    def error(self):
        """``sigma_MC / sqrt(M)`` per output entry (eq. (6))."""
        return monte_carlo_error(self.std, self.num_samples)

    def confidence_band(self, multiple=6.0):
        """``(mean - k sigma, mean + k sigma)``; the paper plots k = 6."""
        mean = self.mean
        spread = multiple * self.std
        return mean - spread, mean + spread

    def quantiles(self, q):
        """Empirical quantiles (requires ``keep_samples=True``)."""
        if self.samples is None:
            raise SamplingError(
                "quantiles need the raw samples; rerun with keep_samples=True"
            )
        return np.quantile(self.samples, q, axis=0)

    def __repr__(self):
        return (
            f"MonteCarloResult(M={self.num_samples}, "
            f"output_shape={np.shape(self.mean)})"
        )


class MonteCarloStudy:
    """Monte Carlo propagation of input uncertainty through a model.

    Parameters
    ----------
    model:
        Callable ``model(parameters) -> array`` mapping one parameter
        vector to one output array (all outputs must share a shape).
    distributions:
        A distribution (applied iid to every dimension -- the paper's
        case: 12 wire elongations) or a list of per-dimension
        distributions.
    dimension:
        Number of uncertain parameters (12 wires in the paper).
    """

    def __init__(self, model, distributions, dimension):
        if not callable(model):
            raise SamplingError("model must be callable")
        dimension = int(dimension)
        if dimension < 1:
            raise SamplingError(f"dimension must be >= 1, got {dimension}")
        self.model = model
        self.distributions = distributions
        self.dimension = dimension

    def run(
        self,
        num_samples,
        seed=None,
        uniform_points=None,
        keep_samples=False,
        callback=None,
        block_size=None,
    ):
        """Run ``num_samples`` model evaluations.

        Parameters
        ----------
        uniform_points:
            Optional pre-generated unit-cube stream (LHS/QMC ablations);
            overrides ``num_samples``/``seed``.
        keep_samples:
            Store every raw output (needed for quantiles/histograms).
        callback:
            Optional ``callback(index, parameters, output)`` progress hook.
        block_size:
            Evaluate samples in blocks of this size through the model's
            ``evaluate_block`` interface (see :class:`BlockedModel`) --
            the sample-blocked fast path.  The model must expose a
            callable ``evaluate_block``; outputs still fold one by one
            in sample order, so statistics and callbacks are unchanged.
        """
        if uniform_points is None:
            uniform_points = random_sampler(num_samples, self.dimension, seed)
        uniform_points = np.asarray(uniform_points, dtype=float)
        if uniform_points.ndim != 2 or uniform_points.shape[1] != self.dimension:
            raise SamplingError(
                f"uniform_points must be (M, {self.dimension}), got "
                f"{uniform_points.shape}"
            )
        parameters = map_to_distributions(uniform_points, self.distributions)
        statistics = RunningStatistics()
        stored = [] if keep_samples else None
        if block_size is not None:
            outputs = self._blocked_outputs(parameters, block_size)
        else:
            outputs = (
                self.model(parameters[index])
                for index in range(parameters.shape[0])
            )
        for index, output in enumerate(outputs):
            output = np.asarray(output, dtype=float)
            statistics.update(output)
            if keep_samples:
                stored.append(output)
            if callback is not None:
                callback(index, parameters[index], output)
        samples = np.stack(stored) if keep_samples else None
        return MonteCarloResult(statistics, parameters, samples)

    def _blocked_outputs(self, parameters, block_size):
        """Generator over per-sample outputs via ``evaluate_block``."""
        block_size = int(block_size)
        if block_size < 1:
            raise SamplingError(
                f"block_size must be >= 1, got {block_size}"
            )
        evaluate_block = getattr(self.model, "evaluate_block", None)
        if not callable(evaluate_block):
            raise SamplingError(
                "block_size needs a model with a callable evaluate_block "
                "(see repro.uq.monte_carlo.BlockedModel)"
            )
        for start in range(0, parameters.shape[0], block_size):
            block = parameters[start:start + block_size]
            outputs = np.asarray(evaluate_block(block), dtype=float)
            if outputs.shape[0] != block.shape[0]:
                raise SamplingError(
                    f"evaluate_block returned {outputs.shape[0]} outputs "
                    f"for {block.shape[0]} samples"
                )
            yield from outputs

    def convergence_trace(self, num_samples, seed=None, checkpoints=None):
        """Mean/std estimates at growing sample counts (convergence study).

        Returns ``(counts, means, stds)`` where means/stds are stacked per
        checkpoint.  Used by the sampling ablation to show the 1/sqrt(M)
        decay of eq. (6).
        """
        uniform_points = random_sampler(num_samples, self.dimension, seed)
        parameters = map_to_distributions(uniform_points, self.distributions)
        if checkpoints is None:
            checkpoints = [
                int(round(num_samples * fraction))
                for fraction in (0.1, 0.25, 0.5, 0.75, 1.0)
            ]
        checkpoints = sorted({max(2, int(c)) for c in checkpoints})
        statistics = RunningStatistics()
        counts, means, stds = [], [], []
        for index in range(parameters.shape[0]):
            statistics.update(np.asarray(self.model(parameters[index])))
            if statistics.count in checkpoints:
                counts.append(statistics.count)
                means.append(statistics.mean)
                stds.append(statistics.std())
        return np.asarray(counts), np.stack(means), np.stack(stds)
