"""The port-space fast step against independent references.

* A converged port fixed point is a fixed point of the full map: a
  direct sparse solve of the stamped thermal system, driven by the
  Joule powers of a direct electrical solve at the same iterate,
  reproduces the port temperatures.
* The radiation certificate rests on the M-matrix bound
  ``|A(g)^-1 delta| <= |delta|_inf A(g)^-1 1_R``, with the right-hand
  side pushed through the Woodbury coefficients from ``h = A_nom^-1 1_R``;
  checked elementwise against ``spsolve`` on random Laplacian-plus-
  diagonal systems with random non-negative stamps.  With frozen field
  materials, full mode is an oracle for the certified radiation.
* The vectorized segment conductances equal the per-segment loop they
  replaced bit for bit.
* On an 8-sample coarse Date16 block, the traces at the default
  tolerance stay within 7e-5 K of a tolerance-1e-10 run.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bondwire.lumped import LumpedBondWire
from repro.coupled.electrothermal import BlockedCoupledSolver, CoupledSolver
from repro.coupled.problem import ElectrothermalProblem
from repro.package3d.chip_example import build_date16_problem
from repro.package3d.uq_study import Date16UncertaintyStudy
from repro.solvers.time_integration import TimeGrid
from repro.solvers.woodbury import WoodburySolver

from .conftest import MM, build_wire_bridge_problem
from .test_fast_step import _direct_joule


def _thermal_matrix(solver, dt, g_th):
    """The stamped fast thermal matrix, assembled directly."""
    return (
        sp.diags(solver.capacitance / dt + solver.conv_diag
                 + solver._rad_linear)
        + solver._fast_k_th
        + solver._wire_stamp_matrix(g_th)
    ).tocsc()


@pytest.mark.parametrize("num_segments", [1, 3])
def test_port_fixed_point_is_a_fixed_point_of_the_full_map(num_segments):
    solver = CoupledSolver(
        build_wire_bridge_problem(num_segments=num_segments, radiation=True),
        mode="fast", tolerance=1.0e-12,
    )
    dt = 0.5
    lengths = np.array([[1.40 * MM], [1.80 * MM]])
    if num_segments > 1:
        lengths = lengths[:1]
        solver.set_wire_lengths(lengths[0])
    rng = np.random.default_rng(num_segments)
    t_old = 300.0 + rng.uniform(0.0, 30.0, (solver.total_size,
                                            lengths.shape[0]))
    step = solver._fast_thermal_step(dt)
    rhs = (solver.capacitance[:, None] / dt * t_old
           + solver.conv_rhs[:, None])
    rhs[solver._rad_nodes] += solver._radiation_remainder(t_old)
    ports, count = solver._port_fixed_point(
        step, rhs, t_old[solver._ports], lengths
    )
    assert count >= 2 * lengths.shape[0]
    _, g_th = solver._port_conductances(ports, lengths)
    for s in range(lengths.shape[0]):
        t_star = t_old[:, s].copy()
        t_star[solver._ports] = ports[:, s]
        q, _, _ = _direct_joule(solver, lengths[s], t_star)
        direct = spla.spsolve(_thermal_matrix(solver, dt, g_th[:, s]),
                              rhs[:, s] + q)
        np.testing.assert_allclose(direct[solver._ports], ports[:, s],
                                   rtol=0.0, atol=1.0e-9)
        radiating = np.zeros(solver.total_size)
        radiating[solver._rad_nodes] = 1.0
        gain = spla.spsolve(_thermal_matrix(solver, dt, g_th[:, s]),
                            radiating)
        assert step.radiation_gain(g_th[:, s:s + 1])[0] == pytest.approx(
            gain.max(), rel=1.0e-12
        )


def test_without_radiation_every_step_is_one_thermal_solve():
    """An empty radiating set certifies every sample after one pass."""
    solver = CoupledSolver(build_wire_bridge_problem(), mode="fast")
    assert solver._rad_nodes.size == 0
    blocked = BlockedCoupledSolver(solver)
    blocked.set_wire_lengths_block([[1.40 * MM], [1.55 * MM], [1.80 * MM]])
    result = blocked.solve_transient_block(TimeGrid(5.0, 10))
    assert np.all(result.iterations_per_step == 1)
    assert solver._fast_thermal_step(0.5).radiation_green is None


@st.composite
def _stamped_systems(draw):
    n = draw(st.integers(3, 10))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    weights = rng.uniform(0.1, 10.0, len(edges))
    laplacian = np.zeros((n, n))
    for (i, j), weight in zip(edges, weights):
        laplacian[[i, j], [i, j]] += weight
        laplacian[i, j] -= weight
        laplacian[j, i] -= weight
    base = laplacian + np.diag(rng.uniform(1.0e-3, 2.0, n))
    k = draw(st.integers(1, 4))
    u = np.zeros((n, k))
    for column in range(k):
        i, j = rng.choice(n, 2, replace=False)
        u[i, column], u[j, column] = 1.0, -1.0
    nominal = rng.uniform(0.1, 5.0, k)
    conductances = rng.uniform(0.0, 10.0, (draw(st.integers(1, 3)), k))
    radiating = np.flatnonzero(rng.random(n) < draw(st.floats(0.0, 1.0)))
    delta = np.zeros((n, conductances.shape[0]))
    delta[radiating] = rng.uniform(-1.0, 1.0,
                                   (radiating.size, conductances.shape[0]))
    return base, u, nominal, conductances, radiating, delta


@settings(max_examples=60, deadline=None)
@given(_stamped_systems())
def test_property_m_matrix_bound(system):
    base, u, nominal, conductances, radiating, delta = system
    solver = WoodburySolver(sp.csc_matrix(base), u, nominal)
    indicator = np.zeros(base.shape[0])
    indicator[radiating] = 1.0
    h = solver.base_solve(indicator)
    coefficients = solver.coefficients(conductances, u.T @ h)
    gains = h[:, None] - solver.base_inverse_u @ coefficients.T
    for s, g in enumerate(conductances):
        stamped = sp.csc_matrix(base + u @ np.diag(g) @ u.T)
        response = spla.spsolve(stamped, delta[:, s])
        np.testing.assert_allclose(gains[:, s],
                                   spla.spsolve(stamped, indicator),
                                   rtol=1.0e-9, atol=1.0e-12)
        bound = np.max(np.abs(delta[:, s]), initial=0.0) * gains[:, s]
        assert np.all(np.abs(response) <= bound * (1.0 + 1.0e-9) + 1.0e-12)


def _reference_conductances(solver, seg_t, lengths, electrical):
    """The per-segment loop the vectorized evaluation replaced."""
    conductances = np.empty_like(seg_t)
    for segment in range(solver._seg_start.size):
        wire = int(solver._seg_wire[segment])
        material = solver.topology.wires[wire].material
        conductivity = (
            material.electrical_conductivity(seg_t[segment])
            if electrical
            else material.thermal_conductivity(seg_t[segment])
        )
        conductances[segment] = (
            conductivity * solver._areas[wire] / lengths[:, wire]
            * solver._num_segments[wire]
        )
    return conductances


def _two_material_problem():
    """The wire bridge with a second, frozen-copper wire beside it."""
    problem = build_wire_bridge_problem()
    wire = problem.wires[0]
    frozen = LumpedBondWire(
        wire.start_node, wire.end_node, wire.material.frozen(320.0),
        wire.diameter, 1.2 * MM, num_segments=2, name="frozen",
    )
    return ElectrothermalProblem(
        grid=problem.grid, materials=problem.materials,
        wires=[wire, frozen],
        electrical_dirichlet=problem.electrical_dirichlet,
        convection=problem.convection, t_initial=problem.t_initial,
        name="two-materials",
    )


@pytest.mark.parametrize("problem", [
    pytest.param(lambda: build_wire_bridge_problem(num_segments=3),
                 id="bridge-3-segments"),
    pytest.param(_two_material_problem, id="two-materials"),
    pytest.param(lambda: build_date16_problem(resolution="coarse")[0],
                 id="date16"),
])
@pytest.mark.parametrize("electrical", [True, False])
def test_segment_conductances_match_per_segment_loop(problem, electrical):
    solver = CoupledSolver(problem(), mode="fast")
    num_wires = len(solver.topology.wires)
    rng = np.random.default_rng(num_wires)
    lengths = rng.uniform(0.8, 2.0, (5, num_wires)) * MM
    seg_t = 300.0 + rng.uniform(0.0, 150.0, (solver._seg_start.size, 5))
    np.testing.assert_array_equal(
        solver._segment_conductances_block(seg_t, lengths, electrical),
        _reference_conductances(solver, seg_t, lengths, electrical),
    )


def test_date16_block_trace_error_against_tight_tolerance():
    """Default tolerance (1e-3 K) vs 1e-10 K on one 8-sample block."""
    study = Date16UncertaintyStudy(tolerance=1.0e-3)
    reference = Date16UncertaintyStudy(tolerance=1.0e-10)
    rng = np.random.default_rng(7)
    deltas = np.asarray(
        study.elongation_distribution.sample(8 * study.num_wires, rng)
    ).reshape(8, study.num_wires)
    error = np.max(np.abs(study.evaluate_traces_block(deltas)
                          - reference.evaluate_traces_block(deltas)))
    assert error <= 7.0e-5


def test_certified_radiation_matches_full_mode_when_materials_frozen():
    """With T-independent field materials, full mode (radiation
    linearized at every iterate) is an oracle for the certified fast
    step; a step accepted before the certificate holds misses it."""
    time_grid = TimeGrid(5.0, 10)

    def solve(mode):
        problem = build_wire_bridge_problem(nonlinear=False, radiation=True,
                                            voltage=0.08)
        solver = CoupledSolver(problem, mode=mode, tolerance=1.0e-8)
        return solver.solve_transient(time_grid)

    fast = solve("fast")
    assert max(fast.iterations_per_step) > 1
    np.testing.assert_allclose(
        fast.wire_temperatures, solve("full").wire_temperatures,
        rtol=0.0, atol=1.0e-6,
    )
