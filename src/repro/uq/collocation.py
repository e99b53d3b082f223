"""Stochastic collocation on Gauss-Hermite nodes (tensor and Smolyak).

The paper notes that "the application of other methods is straightforward"
(Section IV-C); stochastic collocation is the canonical alternative for
smooth dependencies like wire-length -> temperature.  For the 12-dimensional
wire problem a full tensor grid is infeasible, so a Smolyak sparse grid with
linear growth is provided; level 2 needs only ``2 d + 1`` model runs and
already captures the first-order behaviour.

Nodes live in standard-normal space; inputs are mapped through
``x = ppf(Phi(z))`` so non-normal marginals work too (for normal marginals
this reduces to ``mu + sigma z`` exactly).
"""

import itertools
import math

import numpy as np
from scipy import special

from ..errors import SamplingError
from .distributions import NormalDistribution


def gauss_hermite_rule(order):
    """Probabilists' Gauss-Hermite rule: exact for N(0,1) moments.

    Returns ``(nodes, weights)`` with weights summing to 1.
    """
    order = int(order)
    if order < 1:
        raise SamplingError(f"order must be >= 1, got {order}")
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    weights = weights / np.sqrt(2.0 * np.pi)
    return nodes, weights


def _tensor_rule(orders):
    """Tensor product of 1D Gauss-Hermite rules with the given orders."""
    rules = [gauss_hermite_rule(order) for order in orders]
    nodes = np.array(
        list(itertools.product(*[rule[0] for rule in rules]))
    ).reshape(-1, len(orders))
    weights = np.ones(nodes.shape[0])
    for index in range(len(orders)):
        column = np.array(
            list(itertools.product(*[rule[1] for rule in rules]))
        ).reshape(-1, len(orders))[:, index]
        weights *= column
    return nodes, weights


def smolyak_nodes(dimension, level):
    """Smolyak sparse grid in standard-normal space.

    Combination technique with linear growth (1D rule of index ``i`` has
    ``i`` points):

    ``A(q, d) = sum_{q-d+1 <= |i| <= q} (-1)^(q-|i|) C(d-1, q-|i|) (U_i1 x ... x U_id)``

    with ``q = d + level - 1``.  Level 1 is the single mean point; level 2
    uses ``2 d + 1`` distinct nodes.  Returns ``(nodes, weights)``; weights
    sum to 1 but individual weights may be negative (normal for Smolyak).
    """
    dimension = int(dimension)
    level = int(level)
    if dimension < 1 or level < 1:
        raise SamplingError("dimension and level must be >= 1")
    q = dimension + level - 1
    aggregated = {}
    for total in range(max(dimension, q - dimension + 1), q + 1):
        coefficient = (-1.0) ** (q - total) * math.comb(dimension - 1, q - total)
        if coefficient == 0.0:
            continue
        for index_set in _compositions(total, dimension):
            nodes, weights = _tensor_rule(index_set)
            for node, weight in zip(nodes, weights):
                key = tuple(np.round(node, 12))
                aggregated[key] = aggregated.get(key, 0.0) + coefficient * weight
    nodes = np.array(sorted(aggregated), dtype=float).reshape(-1, dimension)
    weights = np.array([aggregated[tuple(node)] for node in nodes])
    # Drop numerically cancelled nodes.
    keep = np.abs(weights) > 1.0e-14
    return nodes[keep], weights[keep]


def _compositions(total, parts):
    """All tuples of ``parts`` positive integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class CollocationResult:
    """Mean/std estimates from a collocation run."""

    def __init__(self, mean, std, nodes, weights, outputs):
        self.mean = mean
        self.std = std
        self.nodes = nodes
        self.weights = weights
        self.outputs = outputs

    @property
    def num_evaluations(self):
        """Number of model evaluations spent."""
        return self.nodes.shape[0]

    def __repr__(self):
        return (
            f"CollocationResult({self.num_evaluations} evaluations, "
            f"output_shape={np.shape(self.mean)})"
        )


class StochasticCollocation:
    """Sparse-grid collocation estimator for smooth models.

    Parameters
    ----------
    model:
        Callable ``model(parameters) -> array``.
    distributions:
        One distribution (iid over all dimensions) or a per-dimension list.
    dimension:
        Number of uncertain inputs.
    level:
        Smolyak level (1 = mean point, 2 = cross pattern, ...).
    """

    def __init__(self, model, distributions, dimension, level=2):
        self.model = model
        self.dimension = int(dimension)
        self.level = int(level)
        if not isinstance(distributions, (list, tuple)):
            distributions = [distributions] * self.dimension
        if len(distributions) != self.dimension:
            raise SamplingError(
                f"{len(distributions)} distributions for {self.dimension} "
                "dimensions"
            )
        self.distributions = list(distributions)

    def _map_nodes(self, nodes):
        """Standard-normal nodes -> physical parameters via ppf(Phi(z))."""
        mapped = np.empty_like(nodes)
        for d, dist in enumerate(self.distributions):
            if isinstance(dist, NormalDistribution):
                mapped[:, d] = dist.mu + dist.sigma * nodes[:, d]
            else:
                cdf = 0.5 * (1.0 + special.erf(nodes[:, d] / np.sqrt(2.0)))
                cdf = np.clip(cdf, 1.0e-12, 1.0 - 1.0e-12)
                mapped[:, d] = dist.ppf(cdf)
        return mapped

    def run(self):
        """Evaluate the model on the sparse grid and return statistics.

        The variance estimate ``E[f^2] - E[f]^2`` with Smolyak weights can
        come out slightly negative for near-deterministic outputs; it is
        clipped at zero.
        """
        nodes, weights = smolyak_nodes(self.dimension, self.level)
        parameters = self._map_nodes(nodes)
        evaluations = [
            self.model(parameters[i]) for i in range(parameters.shape[0])
        ]
        outputs = np.stack(
            [np.asarray(out, dtype=float) for out in evaluations]
        )
        broadcast = weights.reshape((-1,) + (1,) * (outputs.ndim - 1))
        mean = np.sum(broadcast * outputs, axis=0)
        second = np.sum(broadcast * outputs**2, axis=0)
        variance = np.clip(second - mean**2, 0.0, None)
        return CollocationResult(
            mean=mean,
            std=np.sqrt(variance),
            nodes=parameters,
            weights=weights,
            outputs=outputs,
        )
