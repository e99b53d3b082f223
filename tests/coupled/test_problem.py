"""Tests for the problem container and wire topology."""

import numpy as np
import pytest

from repro.bondwire.lumped import LumpedBondWire
from repro.coupled.problem import ElectrothermalProblem, WireTopology
from repro.errors import AssemblyError, BondWireError
from repro.materials.library import copper


def _wire(a, b, segments=1, length=1.55e-3, name=""):
    return LumpedBondWire(a, b, copper(), 25.4e-6, length,
                          num_segments=segments, name=name)


class TestWireTopologySingleSegment:
    def test_no_extra_nodes(self):
        topo = WireTopology([_wire(0, 5), _wire(2, 7)], 10)
        assert topo.num_extra_nodes == 0
        assert topo.total_size == 10
        assert topo.num_segments_total == 2

    def test_wire_temperatures_eq5(self):
        topo = WireTopology([_wire(0, 2)], 4)
        t = np.array([300.0, 0.0, 400.0, 0.0])
        assert topo.wire_temperatures(t)[0] == 350.0

    def test_incidence_matrix(self):
        topo = WireTopology([_wire(0, 2), _wire(1, 3)], 4)
        u = topo.segment_incidence_matrix()
        assert u.shape == (4, 2)
        assert u[0, 0] == 1.0 and u[2, 0] == -1.0
        assert u[1, 1] == 1.0 and u[3, 1] == -1.0

    def test_conductances_match_wire(self):
        wire = _wire(0, 2)
        topo = WireTopology([wire], 4)
        t = np.full(4, 300.0)
        g = topo.segment_electrical_conductances(t)
        assert g[0] == pytest.approx(wire.electrical_conductance(300.0))


class TestWireTopologyMultiSegment:
    def test_extra_node_numbering(self):
        topo = WireTopology([_wire(0, 5, segments=3), _wire(2, 7, segments=2)], 10)
        assert topo.num_extra_nodes == 3
        assert topo.total_size == 13
        assert topo.wire_nodes[0] == [0, 10, 11, 5]
        assert topo.wire_nodes[1] == [2, 12, 7]

    def test_segment_count(self):
        topo = WireTopology([_wire(0, 5, segments=4)], 10)
        assert topo.num_segments_total == 4

    def test_endpoint_temperature_ignores_internal(self):
        topo = WireTopology([_wire(0, 3, segments=2)], 4)
        t = np.array([300.0, 0.0, 0.0, 400.0, 1000.0])  # internal at 1000
        assert topo.wire_temperatures(t)[0] == 350.0
        assert topo.wire_peak_temperatures(t)[0] == 1000.0

    def test_observables_match_per_wire_loop(self):
        """The gathered observables against a per-wire loop, for a state
        and a sample block, over chains of unequal length."""
        topo = WireTopology(
            [_wire(0, 5, segments=3), _wire(2, 7), _wire(4, 9, segments=2)],
            10,
        )
        block = np.random.default_rng(0).uniform(
            300.0, 400.0, size=(topo.total_size, 4)
        )
        means = np.array([
            [stamp.average_value(state) for stamp in topo.endpoint_stamps]
            for state in block.T
        ]).T
        peaks = np.array([
            [np.max(state[chain]) for chain in topo.wire_nodes]
            for state in block.T
        ]).T
        assert np.array_equal(topo.wire_temperatures(block), means)
        assert np.array_equal(topo.wire_peak_temperatures(block), peaks)
        assert np.array_equal(topo.wire_temperatures(block[:, 1]),
                              means[:, 1])
        assert np.array_equal(topo.wire_peak_temperatures(block[:, 1]),
                              peaks[:, 1])

    def test_extra_heat_capacities(self):
        wire = _wire(0, 5, segments=4)
        topo = WireTopology([wire], 10)
        capacities = topo.extra_heat_capacities()
        assert capacities.shape == (3,)
        assert np.allclose(capacities, wire.segment_heat_capacity())
        # Total internal capacity is 3/4 of the wire's full heat capacity.
        full = copper().volumetric_heat_capacity() * wire.volume
        assert np.sum(capacities) == pytest.approx(0.75 * full)

    def test_joule_power_bookkeeping(self):
        """Node powers sum to per-wire totals."""
        topo = WireTopology([_wire(0, 3, segments=2)], 4)
        phi = np.array([0.02, 0.0, 0.0, -0.02, 0.0])
        t = np.full(5, 300.0)
        node_power, wire_power = topo.joule_powers(phi, t)
        assert np.sum(node_power) == pytest.approx(wire_power[0])
        assert wire_power[0] > 0.0


class TestTopologyValidation:
    def test_wire_outside_grid(self):
        with pytest.raises(BondWireError):
            WireTopology([_wire(0, 50)], 10)

    def test_non_wire_rejected(self):
        with pytest.raises(BondWireError):
            WireTopology(["wire"], 10)


class TestProblemCloning:
    def test_with_wire_lengths(self, wire_bridge_problem):
        clone = wire_bridge_problem.with_wire_lengths([3.0e-3])
        assert clone.wires[0].length == 3.0e-3
        assert wire_bridge_problem.wires[0].length == pytest.approx(1.55e-3)
        assert clone.grid is wire_bridge_problem.grid

    def test_wrong_length_count(self, wire_bridge_problem):
        with pytest.raises(BondWireError):
            wire_bridge_problem.with_wire_lengths([1e-3, 2e-3])

    def test_with_segmented_wires(self, wire_bridge_problem):
        clone = wire_bridge_problem.with_segmented_wires(5)
        assert clone.topology.num_extra_nodes == 4
        assert wire_bridge_problem.topology.num_extra_nodes == 0

    def test_initial_temperatures_cover_extra_nodes(self, wire_bridge_problem):
        clone = wire_bridge_problem.with_segmented_wires(3)
        t0 = clone.initial_temperatures()
        assert t0.shape == (clone.total_size,)
        assert np.all(t0 == 300.0)


class TestProblemValidation:
    def test_dirichlet_outside_grid(self, small_grid, copper_field):
        from repro.fit.boundary import DirichletBC

        with pytest.raises(AssemblyError):
            ElectrothermalProblem(
                grid=small_grid,
                materials=copper_field,
                electrical_dirichlet=[DirichletBC([10**6], 0.0)],
            )

    def test_bad_initial_temperature(self, small_grid, copper_field):
        with pytest.raises(AssemblyError):
            ElectrothermalProblem(
                grid=small_grid, materials=copper_field, t_initial=-5.0
            )

    def test_wire_names_autonumbered(self, small_grid, copper_field):
        problem = ElectrothermalProblem(
            grid=small_grid,
            materials=copper_field,
            wires=[_wire(0, 5), _wire(1, 6, name="special")],
        )
        assert problem.wire_names() == ["wire00", "special"]
