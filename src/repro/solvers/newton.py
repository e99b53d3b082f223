"""Nonlinear iteration: fixed point (successive substitution).

The coupled electrothermal step of the paper is solved by successive
substitution: freeze the temperature, assemble the temperature-dependent
matrices, solve, repeat.  :func:`fixed_point` implements that pattern with
optional damping.
"""

import numpy as np

from ..errors import ConvergenceError


class FixedPointResult:
    """Outcome of a fixed-point iteration."""

    def __init__(self, solution, iterations, residual, converged, history=None):
        self.solution = solution
        self.iterations = iterations
        self.residual = residual
        self.converged = converged
        #: Residual norm after each iteration (diagnostic).
        self.history = history if history is not None else []

    def __repr__(self):
        status = "converged" if self.converged else "NOT converged"
        return (
            f"FixedPointResult({status} in {self.iterations} iterations, "
            f"residual={self.residual:.3e})"
        )


def fixed_point(
    update,
    initial,
    tolerance=1.0e-8,
    max_iterations=50,
    damping=1.0,
    norm=None,
    raise_on_failure=True,
):
    """Iterate ``x <- (1 - w) x + w update(x)`` until ``|dx| < tolerance``.

    Parameters
    ----------
    update:
        Callable mapping the current iterate to the next one.
    initial:
        Starting vector (copied).
    tolerance:
        Convergence threshold on the chosen norm of the update step.
    damping:
        Relaxation factor ``w`` in (0, 1]; values below 1 stabilize
        strongly nonlinear steps at the cost of extra iterations.
    norm:
        Step-norm callable; defaults to the max norm, which for
        temperature vectors reads "no node moved by more than tol kelvin".
    raise_on_failure:
        When ``True`` a non-converged iteration raises
        :class:`~repro.errors.ConvergenceError`; otherwise the last iterate
        is returned with ``converged = False``.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping!r}")
    if norm is None:
        norm = lambda v: float(np.max(np.abs(v))) if np.size(v) else 0.0
    current = np.array(initial, dtype=float, copy=True)
    history = []
    residual = np.inf
    for iteration in range(1, max_iterations + 1):
        proposed = np.asarray(update(current), dtype=float)
        step = proposed - current
        current = current + damping * step
        residual = norm(damping * step)
        history.append(residual)
        if residual < tolerance:
            return FixedPointResult(current, iteration, residual, True, history)
    if raise_on_failure:
        raise ConvergenceError(
            f"fixed-point iteration did not converge within {max_iterations} "
            f"iterations (last step norm {residual:.3e}, tol {tolerance:.3e})",
            iterations=max_iterations,
            residual=residual,
        )
    return FixedPointResult(current, max_iterations, residual, False, history)
