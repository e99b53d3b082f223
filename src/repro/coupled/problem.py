"""Problem definition for the coupled electrothermal simulation.

An :class:`ElectrothermalProblem` bundles everything eq. (3)-(4) of the
paper need: the grid, the cell material assignment, the electrical Dirichlet
(PEC) conditions, the thermal boundary conditions (convection/radiation) and
the list of lumped bonding wires.  :class:`WireTopology` derives the stamp
vectors, including the internal nodes that multi-segment wires append after
the grid unknowns.
"""

import numpy as np

from ..bondwire.lumped import LumpedBondWire, WireStamp
from ..errors import AssemblyError, BondWireError
from ..fit.boundary import ConvectionBC, DirichletBC, RadiationBC


class WireTopology:
    """Stamps and bookkeeping for all wires of a problem.

    A wire with ``S`` segments contributes ``S`` two-terminal elements in a
    chain ``start -> e_1 -> ... -> e_{S-1} -> end`` where the ``e_i`` are
    *internal* unknowns numbered after the grid nodes.  The paper's default
    is ``S = 1`` (no internal nodes); larger ``S`` realizes the "number of
    concatenated lumped elements resulting in a piecewise linear
    temperature distribution" extension of Section III-B.
    """

    def __init__(self, wires, num_grid_nodes):
        self.wires = list(wires)
        for wire in self.wires:
            if not isinstance(wire, LumpedBondWire):
                raise BondWireError(
                    f"expected LumpedBondWire, got {type(wire).__name__}"
                )
        self.num_grid_nodes = int(num_grid_nodes)
        self.num_extra_nodes = sum(w.num_segments - 1 for w in self.wires)
        self.total_size = self.num_grid_nodes + self.num_extra_nodes

        #: Per wire: list of WireStamp, one per segment.
        self.segment_stamps = []
        #: Per wire: list of all node indices along the chain.
        self.wire_nodes = []
        #: Per wire: the end-point averaging stamp (eq. (5) of the paper).
        self.endpoint_stamps = []
        #: Flat list of (wire_index, segment_stamp) over all segments.
        self.flat_segments = []

        next_extra = self.num_grid_nodes
        for wire_index, wire in enumerate(self.wires):
            if not isinstance(wire, LumpedBondWire):
                raise BondWireError(
                    f"expected LumpedBondWire, got {type(wire).__name__}"
                )
            if wire.start_node >= self.num_grid_nodes:
                raise BondWireError(
                    f"wire {wire.name!r} start node {wire.start_node} outside "
                    f"grid ({self.num_grid_nodes} nodes)"
                )
            if wire.end_node >= self.num_grid_nodes:
                raise BondWireError(
                    f"wire {wire.name!r} end node {wire.end_node} outside "
                    f"grid ({self.num_grid_nodes} nodes)"
                )
            chain = [wire.start_node]
            for _ in range(wire.num_segments - 1):
                chain.append(next_extra)
                next_extra += 1
            chain.append(wire.end_node)
            stamps = [
                WireStamp(a, b, self.total_size)
                for a, b in zip(chain[:-1], chain[1:])
            ]
            self.wire_nodes.append(chain)
            self.segment_stamps.append(stamps)
            self.endpoint_stamps.append(
                WireStamp(wire.start_node, wire.end_node, self.total_size)
            )
            for stamp in stamps:
                self.flat_segments.append((wire_index, stamp))
        # Index arrays of the wire observables, so each is one gather
        # over a state ``(n,)`` or a sample block ``(n, S)``: the
        # endpoint pairs ``(W, 2)``, and every chain padded with its end
        # node into ``(W, L)``.
        self._endpoints = np.array(
            [[stamp.start_node, stamp.end_node]
             for stamp in self.endpoint_stamps],
            dtype=int,
        ).reshape(-1, 2)
        width = max((len(chain) for chain in self.wire_nodes), default=1)
        self._chains = np.array(
            [chain + chain[-1:] * (width - len(chain))
             for chain in self.wire_nodes],
            dtype=int,
        ).reshape(-1, width)

    @property
    def num_segments_total(self):
        """Total number of two-terminal elements over all wires."""
        return len(self.flat_segments)

    def segment_incidence_matrix(self):
        """Dense ``(total_size, num_segments)`` matrix of all P vectors.

        Columns are ordered like :attr:`flat_segments`; this is the ``U``
        matrix of the Woodbury fast path.
        """
        u = np.zeros((self.total_size, self.num_segments_total))
        for column, (_, stamp) in enumerate(self.flat_segments):
            u[stamp.start_node, column] = 1.0
            u[stamp.end_node, column] = -1.0
        return u

    def segment_node_indices(self):
        """``(start, end, wire)`` index arrays over :attr:`flat_segments`.

        The vectorized view of the stamp list: entry ``i`` describes
        segment ``i`` (column ``i`` of the incidence matrix).  This is
        what the sample-blocked fast path uses to evaluate segment
        temperatures, conductances and Joule scatters as array ops
        instead of per-stamp Python loops.
        """
        starts = np.array(
            [stamp.start_node for _, stamp in self.flat_segments], dtype=int
        )
        ends = np.array(
            [stamp.end_node for _, stamp in self.flat_segments], dtype=int
        )
        wires = np.array(
            [wire_index for wire_index, _ in self.flat_segments], dtype=int
        )
        return starts, ends, wires

    def wire_temperatures(self, temperatures):
        """Representative wire temperatures ``T_bw,j = X_j^T T`` (eq. (5)).

        The average of the two *end-point* temperatures, regardless of the
        number of segments -- exactly the paper's definition.  ``(W,)``
        for a state ``(n,)``, ``(W, S)`` for a sample block ``(n, S)``.
        """
        temperatures = np.asarray(temperatures, dtype=float)
        return 0.5 * (temperatures[self._endpoints[:, 0]]
                      + temperatures[self._endpoints[:, 1]])

    def wire_peak_temperatures(self, temperatures):
        """Maximum temperature over each wire's chain nodes.

        Equals :meth:`wire_temperatures` end-point maximum for single
        segment wires; for multi-segment wires this sees the interior hot
        spot the piecewise-linear profile resolves.  Shapes as in
        :meth:`wire_temperatures`.
        """
        temperatures = np.asarray(temperatures, dtype=float)
        return np.max(temperatures[self._chains], axis=1)

    def segment_temperatures(self, temperatures):
        """Average temperature of every segment (controls its conductances)."""
        temperatures = np.asarray(temperatures, dtype=float)
        return np.asarray(
            [stamp.average_value(temperatures) for _, stamp in self.flat_segments]
        )

    def segment_electrical_conductances(self, temperatures):
        """Per-segment ``G_el(T_seg)`` [S] for the current iterate."""
        seg_t = self.segment_temperatures(temperatures)
        return np.asarray(
            [
                self.wires[w].segment_electrical_conductance(t)
                for (w, _), t in zip(self.flat_segments, seg_t)
            ]
        )

    def segment_thermal_conductances(self, temperatures):
        """Per-segment ``G_th(T_seg)`` [W/K] for the current iterate."""
        seg_t = self.segment_temperatures(temperatures)
        return np.asarray(
            [
                self.wires[w].segment_thermal_conductance(t)
                for (w, _), t in zip(self.flat_segments, seg_t)
            ]
        )

    def extra_heat_capacities(self):
        """Heat capacity [J/K] of each internal wire node.

        Each internal node represents one segment's worth of wire volume.
        """
        capacities = np.zeros(self.num_extra_nodes)
        offset = 0
        for wire in self.wires:
            for _ in range(wire.num_segments - 1):
                capacities[offset] = wire.segment_heat_capacity()
                offset += 1
        return capacities

    def joule_powers(self, potentials, temperatures):
        """Per-node wire Joule power vector ``Q_bw`` [W] (full size).

        Each segment dissipates ``g (P^T Phi)^2`` split half/half onto its
        two nodes (the ``X_j`` distribution of the paper, per segment).
        Also returns the per-wire total powers.
        """
        potentials = np.asarray(potentials, dtype=float)
        g_el = self.segment_electrical_conductances(temperatures)
        node_power = np.zeros(self.total_size)
        wire_power = np.zeros(len(self.wires))
        for (wire_index, stamp), g in zip(self.flat_segments, g_el):
            power = stamp.joule_power(potentials, g)
            node_power[stamp.start_node] += 0.5 * power
            node_power[stamp.end_node] += 0.5 * power
            wire_power[wire_index] += power
        return node_power, wire_power


class ElectrothermalProblem:
    """Validated container for one coupled simulation setup.

    Parameters
    ----------
    grid:
        :class:`~repro.grid.tensor_grid.TensorGrid`.
    materials:
        :class:`~repro.fit.material_field.MaterialField` on the same grid.
    wires:
        Iterable of :class:`~repro.bondwire.lumped.LumpedBondWire`.
    electrical_dirichlet:
        Iterable of :class:`~repro.fit.boundary.DirichletBC` (the PEC
        contact potentials, Section V-B).
    convection, radiation:
        Optional thermal boundary conditions (paper: both on all faces).
    thermal_dirichlet:
        Optional fixed-temperature nodes (not used by the paper's study,
        supported for heat-sink scenarios).
    t_initial:
        Uniform initial temperature [K] (paper: 300 K).
    name:
        Label used in reports.
    """

    def __init__(
        self,
        grid,
        materials,
        wires=(),
        electrical_dirichlet=(),
        convection=None,
        radiation=None,
        thermal_dirichlet=(),
        t_initial=300.0,
        name="",
    ):
        if materials.grid is not grid and materials.grid != grid:
            raise AssemblyError("material field belongs to a different grid")
        self.grid = grid
        self.materials = materials
        self.wires = list(wires)
        self.electrical_dirichlet = list(electrical_dirichlet)
        self.thermal_dirichlet = list(thermal_dirichlet)
        for bc in self.electrical_dirichlet + self.thermal_dirichlet:
            if not isinstance(bc, DirichletBC):
                raise AssemblyError(
                    f"expected DirichletBC, got {type(bc).__name__}"
                )
            if np.any(bc.nodes >= grid.num_nodes):
                raise AssemblyError(
                    f"Dirichlet BC {bc.label!r} references nodes outside the grid"
                )
        if convection is not None and not isinstance(convection, ConvectionBC):
            raise AssemblyError(
                f"convection must be a ConvectionBC, got {type(convection).__name__}"
            )
        if radiation is not None and not isinstance(radiation, RadiationBC):
            raise AssemblyError(
                f"radiation must be a RadiationBC, got {type(radiation).__name__}"
            )
        self.convection = convection
        self.radiation = radiation
        self.t_initial = float(t_initial)
        if self.t_initial <= 0.0:
            raise AssemblyError(
                f"initial temperature must be positive, got {t_initial!r}"
            )
        self.name = name
        self.topology = WireTopology(self.wires, grid.num_nodes)

    @property
    def total_size(self):
        """Grid nodes plus internal wire nodes."""
        return self.topology.total_size

    def initial_temperatures(self):
        """Uniform initial temperature vector over all unknowns."""
        return np.full(self.total_size, self.t_initial)

    def with_wire_lengths(self, lengths):
        """Clone of this problem with new wire lengths (Monte Carlo path).

        Only the wires change; grid, materials and boundary conditions are
        shared (they are read-only during solves), so cloning is cheap.
        """
        lengths = np.asarray(lengths, dtype=float).ravel()
        if lengths.size != len(self.wires):
            raise BondWireError(
                f"expected {len(self.wires)} lengths, got {lengths.size}"
            )
        clone = ElectrothermalProblem.__new__(ElectrothermalProblem)
        clone.grid = self.grid
        clone.materials = self.materials
        clone.wires = [
            wire.with_length(length)
            for wire, length in zip(self.wires, lengths)
        ]
        clone.electrical_dirichlet = self.electrical_dirichlet
        clone.thermal_dirichlet = self.thermal_dirichlet
        clone.convection = self.convection
        clone.radiation = self.radiation
        clone.t_initial = self.t_initial
        clone.name = self.name
        clone.topology = WireTopology(clone.wires, self.grid.num_nodes)
        return clone

    def with_segmented_wires(self, num_segments):
        """Clone with every wire subdivided into ``num_segments`` elements."""
        clone = ElectrothermalProblem.__new__(ElectrothermalProblem)
        clone.grid = self.grid
        clone.materials = self.materials
        clone.wires = [wire.with_segments(num_segments) for wire in self.wires]
        clone.electrical_dirichlet = self.electrical_dirichlet
        clone.thermal_dirichlet = self.thermal_dirichlet
        clone.convection = self.convection
        clone.radiation = self.radiation
        clone.t_initial = self.t_initial
        clone.name = self.name
        clone.topology = WireTopology(clone.wires, self.grid.num_nodes)
        return clone

    def wire_names(self):
        """Wire labels (auto-numbered when unnamed)."""
        return [
            wire.name or f"wire{index:02d}"
            for index, wire in enumerate(self.wires)
        ]

    def __repr__(self):
        return (
            f"ElectrothermalProblem({self.name or 'unnamed'}: "
            f"{self.grid.num_nodes} grid nodes, {len(self.wires)} wires, "
            f"{self.topology.num_extra_nodes} internal wire nodes)"
        )
