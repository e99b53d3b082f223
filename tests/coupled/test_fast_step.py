"""The fast step's reductions against independent references.

* The electrical solve stops at ``k + 1`` coefficients and reads the
  field, the wire drops and the Joule powers off a precomputed basis;
  the reference is a direct sparse solve of the stamped system whose
  potentials go through ``cell_field_components`` /
  ``node_power_from_cells`` and the wire topology's own Joule powers.
* The radiative source is evaluated on the radiating nodes only; the
  reference is the dense formula over every node.
* Transients warm-start each step from the previous states; the
  reference is the same steps taken cold through ``_step`` with no
  guess.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.coupled.electrical import embed_grid_matrix
from repro.coupled.electrothermal import CoupledSolver
from repro.solvers.time_integration import TimeGrid
from repro.telemetry import tracing

from .conftest import MM, build_wire_bridge_problem


def _assert_close(actual, expected, rtol=1.0e-12):
    """Agreement relative to the largest magnitude of ``expected``."""
    expected = np.asarray(expected, dtype=float)
    scale = float(np.max(np.abs(expected)))
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


def _direct_joule(solver, lengths, t_star):
    """Joule powers of one sample from a direct solve of its system.

    Field materials frozen at the initial temperature (fast mode), the
    wire stamps at ``t_star`` for the bound ``lengths``; returns the
    node powers, the per-wire powers and the field power.
    """
    solver.set_wire_lengths(lengths)
    disc = solver.discretization
    frozen = np.full(solver.n_grid, solver.problem.t_initial)
    sigma_diag, _, cell_t = solver._field_diagonals(frozen)
    stiffness = embed_grid_matrix(
        disc.stiffness_from_diagonal(sigma_diag), solver.total_size
    )
    g_el = solver.topology.segment_electrical_conductances(t_star)
    a_ff, rhs = solver._reduce_electrical(
        stiffness + solver._wire_stamp_matrix(g_el)
    )
    phi = solver._expand_electrical(spla.spsolve(a_ff, rhs))
    ex, ey, ez = disc.cell_field_components(phi[: solver.n_grid])
    density = disc.materials.sigma_cells(cell_t) * (ex**2 + ey**2 + ez**2)
    q, wire_powers = solver.topology.joule_powers(phi, t_star)
    q[: solver.n_grid] += disc.node_power_from_cells(density)
    return q, wire_powers, disc.cell_volumes @ density


@pytest.mark.parametrize(
    ("num_segments", "lengths"),
    [
        (1, [[1.55 * MM]]),
        (1, [[1.40 * MM], [1.55 * MM], [1.80 * MM]]),
        (3, [[1.70 * MM]]),
    ],
    ids=["S1", "S3", "S1-three-segments"],
)
def test_basis_matches_direct_solve(num_segments, lengths):
    lengths = np.asarray(lengths)
    solver = CoupledSolver(
        build_wire_bridge_problem(num_segments=num_segments), mode="fast"
    )
    num_samples = lengths.shape[0]
    rng = np.random.default_rng(num_samples + num_segments)
    t_star = 300.0 + rng.uniform(0.0, 60.0, (solver.total_size, num_samples))
    seg_t = 0.5 * (t_star[solver._seg_start] + t_star[solver._seg_end])
    g_el = solver._segment_conductances_block(seg_t, lengths, electrical=True)
    solver._el_scale = 0.7
    _, q, wire_powers, field_power = solver._joule_block(g_el)
    for s in range(num_samples):
        q_ref, wire_ref, field_ref = _direct_joule(
            solver, lengths[s], t_star[:, s]
        )
        _assert_close(q[:, s], q_ref)
        _assert_close(wire_powers[:, s], wire_ref)
        _assert_close(field_power[s], field_ref)


def test_radiation_on_support_equals_dense_formula():
    solver = CoupledSolver(build_wire_bridge_problem(radiation=True),
                           mode="fast")
    assert 0 < solver._rad_nodes.size < solver.total_size
    rng = np.random.default_rng(3)
    t_star = 300.0 + rng.uniform(-20.0, 80.0, (solver.total_size, 4))
    dense = solver.rad_coeff[:, None] * (
        solver.t_ambient_rad**4 - t_star**4
    )
    on_support = np.zeros_like(dense)
    on_support[solver._rad_nodes] = solver._radiation_block(t_star)
    np.testing.assert_array_equal(on_support, dense)


def test_warm_started_transient_matches_cold_steps():
    tolerance = 1.0e-6
    problem = build_wire_bridge_problem()
    grid = TimeGrid(10.0, 20)

    with tracing.capture() as warm_capture:
        warm = CoupledSolver(problem, mode="fast", tolerance=tolerance)
        result = warm.solve_transient(grid)

    cold = CoupledSolver(problem, mode="fast", tolerance=tolerance)
    state = problem.initial_temperatures()[:, None]
    traces = [cold.topology.wire_temperatures(state[:, 0])]
    with tracing.capture() as cold_capture:
        for _ in range(grid.num_steps):
            state = cold._step(state, grid.dt, cold._bound_lengths())[0]
            traces.append(cold.topology.wire_temperatures(state[:, 0]))

    np.testing.assert_allclose(
        result.wire_temperatures, np.vstack(traces),
        rtol=0.0, atol=10.0 * tolerance,
    )

    def counter(capture, name):
        return capture.registry.counter_value(name)

    passes = "solver.fixed_point_iterations"
    assert counter(warm_capture, passes) == sum(result.iterations_per_step)
    # Without radiation every step is one thermal solve, warm or cold;
    # the warm start saves port iterations.
    assert counter(warm_capture, passes) == grid.num_steps
    assert counter(cold_capture, passes) == grid.num_steps
    ports = "solver.port_iterations"
    assert counter(warm_capture, ports) < counter(cold_capture, ports)
