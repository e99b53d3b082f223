"""Registered problems for service tests.

``"test-cached"`` factorizes a small sparse system through the
process-level :func:`~repro.solvers.cache.shared_cache` in its builder,
so concurrent in-process jobs over the same scenario demonstrably reuse
one LU factorization (the cache's hit counter moves).

``"test-sleepy"`` sleeps a configurable time per sample -- the slow,
cheap campaign that a kill-mid-run test can reliably interrupt.

Both compute pure functions of the parameter row, so campaigns over
them are bit-reproducible no matter how they were scheduled, killed or
resumed.
"""

import time

import numpy as np
import scipy.sparse

from repro.campaign.registry import register_problem
from repro.solvers.cache import shared_cache

CACHED_PROBLEM = "test-cached"
SLEEPY_PROBLEM = "test-sleepy"
MODULE = "tests.service.problems"


def _system(size):
    """A small SPD tridiagonal system (content-stable for the cache)."""
    main = 2.5 * np.ones(size)
    off = -1.0 * np.ones(size - 1)
    return scipy.sparse.diags(
        [off, main, off], [-1, 0, 1], format="csc"
    )


def build_cached(scenario):
    size = int(scenario.options.get("size", 12))
    lu = shared_cache().factorize(_system(size))

    def model(parameters):
        p = np.asarray(parameters, dtype=float)
        rhs = np.zeros(size)
        rhs[: p.size] = p
        solution = lu.solve(rhs)
        return np.array([
            solution.sum(), np.abs(solution).max(), (solution**2).sum(),
        ])

    return model


def build_sleepy(scenario):
    sleep_s = float(scenario.options.get("sleep_s", 0.01))

    def model(parameters):
        p = np.asarray(parameters, dtype=float)
        time.sleep(sleep_s)
        return np.array([p.sum(), p.max(), (p * p).sum()])

    return model


register_problem(CACHED_PROBLEM, build_cached)
register_problem(SLEEPY_PROBLEM, build_sleepy)
