"""Verification of the coupled transient/stationary solver."""

import numpy as np
import pytest

from repro.coupled.electrothermal import (
    _MAX_THERMAL_SOLVERS,
    BlockedCoupledSolver,
    CoupledSolver,
)
from repro import telemetry
from repro.errors import ConvergenceError, SolverError
from repro.solvers.time_integration import TimeGrid

from .conftest import MM, build_wire_bridge_problem


def _one_step(solver, dt, **kwargs):
    """One implicit Euler step of size ``dt`` from the initial state."""
    return solver.solve_transient(TimeGrid(dt, 1), **kwargs)


@pytest.fixture(scope="module")
def bridge_transient():
    problem = build_wire_bridge_problem()
    solver = CoupledSolver(problem, mode="full", tolerance=1e-6)
    time_grid = TimeGrid(20.0, 40)
    return problem, solver, solver.solve_transient(time_grid)


class TestTransientBasics:
    def test_starts_at_initial_temperature(self, bridge_transient):
        _, _, result = bridge_transient
        assert np.allclose(result.wire_temperatures[0], 300.0)

    def test_monotone_heating(self, bridge_transient):
        """With constant drive the wire temperature rises monotonically."""
        _, _, result = bridge_transient
        trace = result.wire_trace(0)
        assert np.all(np.diff(trace) > -1e-9)
        assert trace[-1] > 300.5

    def test_power_positive_and_plausible(self, bridge_transient):
        problem, _, result = bridge_transient
        wire = problem.wires[0]
        # I = V G: 40 mV across a ~53 mOhm wire -> ~30 mW at 300 K.
        expected = 0.04**2 * wire.electrical_conductance(300.0)
        assert result.wire_powers[-1, 0] == pytest.approx(expected, rel=0.3)

    def test_wire_power_dominates_field_power(self, bridge_transient):
        """The thin wire, not the fat electrodes, dissipates the power."""
        _, _, result = bridge_transient
        assert result.wire_powers[-1, 0] > 50.0 * result.field_joule_power[-1]

    def test_iterations_recorded(self, bridge_transient):
        _, _, result = bridge_transient
        assert len(result.iterations_per_step) == 40
        assert all(i >= 1 for i in result.iterations_per_step)

    def test_electrothermal_feedback_reduces_power(self, bridge_transient):
        """Voltage-driven: the hot wire dissipates less than the cold one."""
        _, _, result = bridge_transient
        assert result.wire_powers[-1, 0] < result.wire_powers[1, 0]


class TestFastMode:
    def test_fast_matches_full(self):
        problem = build_wire_bridge_problem()
        time_grid = TimeGrid(10.0, 20)
        full = CoupledSolver(problem, mode="full", tolerance=1e-6)
        fast = CoupledSolver(problem, mode="fast", tolerance=1e-6)
        r_full = full.solve_transient(time_grid)
        r_fast = fast.solve_transient(time_grid)
        # Frozen field materials are the only difference; on this small
        # temperature excursion they agree to well below a kelvin.
        assert np.allclose(
            r_fast.wire_temperatures, r_full.wire_temperatures, atol=0.5
        )

    def test_fast_exact_when_materials_frozen(self):
        """With T-independent field materials the two modes coincide:
        full mode is an oracle that shares no code with the fast step.
        Checked for single- and multi-segment wires and for every row
        of a sample block."""
        time_grid = TimeGrid(5.0, 10)

        def solver(mode, num_segments=1):
            problem = build_wire_bridge_problem(
                nonlinear=False, num_segments=num_segments
            )
            return CoupledSolver(problem, mode=mode, tolerance=1e-8)

        for num_segments in (1, 3):
            fast = solver("fast", num_segments).solve_transient(time_grid)
            full = solver("full", num_segments).solve_transient(time_grid)
            np.testing.assert_allclose(
                fast.wire_temperatures, full.wire_temperatures,
                rtol=0.0, atol=1e-6,
            )

        lengths = np.array([[1.40 * MM], [1.55 * MM], [1.80 * MM]])
        blocked = BlockedCoupledSolver(solver("fast"))
        blocked.set_wire_lengths_block(lengths)
        block = blocked.solve_transient_block(time_grid)
        full = solver("full")
        for sample, row in enumerate(lengths):
            full.set_wire_lengths(row)
            np.testing.assert_allclose(
                block.wire_temperatures[sample],
                full.solve_transient(time_grid).wire_temperatures,
                rtol=0.0, atol=1e-6,
            )

    def test_fast_with_radiation(self):
        problem = build_wire_bridge_problem(radiation=True)
        time_grid = TimeGrid(5.0, 10)
        r_full = CoupledSolver(problem, mode="full",
                               tolerance=1e-7).solve_transient(time_grid)
        r_fast = CoupledSolver(problem, mode="fast",
                               tolerance=1e-7).solve_transient(time_grid)
        assert np.allclose(
            r_fast.wire_temperatures, r_full.wire_temperatures, atol=0.5
        )

    def test_fast_rejects_pec_wire_nodes(self, small_grid):
        """A wire landing on a Dirichlet node must fall back to full mode."""
        from repro.bondwire.lumped import LumpedBondWire
        from repro.coupled.problem import ElectrothermalProblem
        from repro.fit.boundary import DirichletBC
        from repro.fit.material_field import MaterialField
        from repro.materials.library import copper

        field = MaterialField(small_grid, copper())
        problem = ElectrothermalProblem(
            grid=small_grid,
            materials=field,
            wires=[LumpedBondWire(0, 5, copper(), 25e-6, 1e-3)],
            electrical_dirichlet=[DirichletBC([0], 0.02),
                                  DirichletBC([7], -0.02)],
        )
        with pytest.raises(SolverError):
            CoupledSolver(problem, mode="fast")

    def test_unknown_mode(self, wire_bridge_problem):
        with pytest.raises(SolverError):
            CoupledSolver(wire_bridge_problem, mode="turbo")


class TestSetWireLengths:
    def test_rebinding_matches_fresh_solver(self):
        problem = build_wire_bridge_problem()
        time_grid = TimeGrid(5.0, 10)
        solver = CoupledSolver(problem, mode="fast", tolerance=1e-7)
        solver.solve_transient(time_grid)  # run once at nominal
        solver.set_wire_lengths([2.5e-3])
        rebound = solver.solve_transient(time_grid)

        fresh_problem = build_wire_bridge_problem(wire_length=2.5e-3)
        fresh = CoupledSolver(
            fresh_problem, mode="fast", tolerance=1e-7
        ).solve_transient(time_grid)
        assert np.allclose(
            rebound.wire_temperatures, fresh.wire_temperatures, atol=1e-6
        )

    def test_wrong_count_rejected(self, wire_bridge_problem):
        solver = CoupledSolver(wire_bridge_problem, mode="fast")
        with pytest.raises(SolverError):
            solver.set_wire_lengths([1e-3, 2e-3])


class TestMultiSegment:
    def test_interior_hotspot_resolved(self):
        """Segmented wire shows an interior peak above the end average."""
        problem = build_wire_bridge_problem(num_segments=5)
        solver = CoupledSolver(problem, mode="full", tolerance=1e-6)
        result = solver.solve_transient(TimeGrid(20.0, 20))
        endpoint = result.wire_temperatures[-1, 0]
        peak = result.wire_peak_temperatures[-1, 0]
        assert peak > endpoint

    def test_segmented_total_power_matches_single(self):
        time_grid = TimeGrid(10.0, 10)
        single = CoupledSolver(
            build_wire_bridge_problem(num_segments=1), mode="full",
            tolerance=1e-6,
        ).solve_transient(time_grid)
        chain = CoupledSolver(
            build_wire_bridge_problem(num_segments=4), mode="full",
            tolerance=1e-6,
        ).solve_transient(time_grid)
        assert chain.wire_powers[-1, 0] == pytest.approx(
            single.wire_powers[-1, 0], rel=0.05
        )


class TestStationary:
    def test_matches_long_transient(self):
        problem = build_wire_bridge_problem()
        solver = CoupledSolver(problem, mode="full", tolerance=1e-8)
        stationary = solver.solve_stationary()
        transient = CoupledSolver(
            problem, mode="full", tolerance=1e-8
        ).solve_transient(TimeGrid(2000.0, 200))
        assert stationary.wire_temperatures[0] == pytest.approx(
            transient.wire_temperatures[-1, 0], abs=0.05
        )

    def test_energy_balance(self):
        """At steady state, Joule power = convective losses."""
        problem = build_wire_bridge_problem()
        solver = CoupledSolver(problem, mode="full", tolerance=1e-9)
        stationary = solver.solve_stationary()
        losses = problem.convection.power(
            solver.discretization.dual,
            stationary.temperatures[: problem.grid.num_nodes],
        )
        assert losses == pytest.approx(stationary.total_power(), rel=1e-3)

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_failed_step_restores_drive_scale(self, mode):
        """A step that fails to converge must not leave its drive scale
        behind for a later stationary solve."""
        problem = build_wire_bridge_problem()
        solver = CoupledSolver(problem, mode=mode, max_iterations=1)
        with pytest.raises(ConvergenceError):
            _one_step(solver, 1.0, waveform=0.5)
        fresh = CoupledSolver(problem, mode=mode, max_iterations=1)
        assert np.array_equal(solver.solve_stationary().temperatures,
                              fresh.solve_stationary().temperatures)

    def test_stationary_requires_heat_path(self, small_grid, copper_field):
        from repro.coupled.problem import ElectrothermalProblem
        from repro.fit.boundary import DirichletBC
        from repro.grid.indexing import GridIndexing

        indexing = GridIndexing(small_grid)
        problem = ElectrothermalProblem(
            grid=small_grid,
            materials=copper_field,
            electrical_dirichlet=[
                DirichletBC(indexing.boundary_nodes("x-"), 0.01),
                DirichletBC(indexing.boundary_nodes("x+"), -0.01),
            ],
        )
        solver = CoupledSolver(problem, mode="full")
        with pytest.raises(SolverError):
            solver.solve_stationary()


class TestStoreFields:
    def test_fields_stored_on_request(self):
        problem = build_wire_bridge_problem()
        solver = CoupledSolver(problem, mode="fast", tolerance=1e-5)
        result = solver.solve_transient(TimeGrid(2.0, 4), store_fields=True)
        assert len(result.fields) == 5
        assert result.fields[0].shape == (problem.total_size,)
        assert np.allclose(result.fields[-1], result.final_temperatures)


class TestPerDtSolverReuse:
    """The single-slot memo regression: one solver alternating between
    two grids (e.g. the levels of a two-level time estimator) must
    build O(#distinct dt) thermal solvers, not O(#solves).  Counted by
    the ambient telemetry counters of a capture."""

    def test_builds_scale_with_distinct_dts_not_solves(self):
        problem = build_wire_bridge_problem()
        solver = CoupledSolver(problem, mode="fast", tolerance=1e-4)
        with telemetry.capture() as collector:
            # 5 alternation rounds over two step sizes.
            for _ in range(5):
                _one_step(solver, 0.5)
                _one_step(solver, 0.25)
        counters = collector.registry
        assert counters.counter_value("solver.coupled_steps") == 10
        assert counters.counter_value("solver.thermal_builds") == 2

    def test_lru_bound_evicts_oldest(self):
        problem = build_wire_bridge_problem()
        solver = CoupledSolver(problem, mode="fast", tolerance=1e-4)
        steps = [1.0 / 2**k for k in range(_MAX_THERMAL_SOLVERS + 1)]
        with telemetry.capture() as collector:
            def builds():
                return collector.registry.counter_value(
                    "solver.thermal_builds"
                )

            for dt in steps:
                _one_step(solver, dt)
            assert len(solver._fast_th_solvers) == _MAX_THERMAL_SOLVERS
            assert builds() == len(steps)
            # Re-solving the evicted dt rebuilds (bounded memory,
            # correct result), the cached ones do not.
            _one_step(solver, steps[-1])
            assert builds() == len(steps)
            _one_step(solver, steps[0])
            assert builds() == len(steps) + 1

    def test_statistics_report_cache_counters(self):
        from repro.solvers.cache import FactorizationCache

        cache = FactorizationCache()
        problem = build_wire_bridge_problem()
        with telemetry.capture() as collector:
            solver = CoupledSolver(problem, mode="fast", tolerance=1e-4,
                                   factorization_cache=cache)
            _one_step(solver, 0.5)
        counters = collector.registry
        assert counters.counter_value("solver.coupled_steps") == 1
        assert counters.counter_value("solver.thermal_builds") == 1
        assert len(solver._fast_th_solvers) == 1
        # el base (setup) + one thermal base missed the shared cache.
        assert cache.misses == 2
        assert cache.hits == 0
        assert counters.counter_value("cache.misses") == 2
        assert counters.counter_value("cache.hits") == 0
