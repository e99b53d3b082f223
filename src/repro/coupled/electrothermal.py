"""The coupled nonlinear transient electrothermal solver.

Implements the paper's scheme: implicit Euler in time, successive
substitution (fixed point) over the two-directional nonlinear coupling in
every step:

1. freeze the temperature iterate ``T*``;
2. assemble ``sigma(T*)``, ``lambda(T*)`` and the wire conductances
   ``G_el(T_bw*)``, ``G_th(T_bw*)``;
3. solve the stationary current problem for ``Phi``;
4. compute the Joule sources (field cells + wire elements);
5. solve the thermal step for the new ``T``;
6. repeat until no node moves by more than the tolerance.

Two execution modes:

* ``mode="full"`` -- everything reassembled from the current iterate
  (the reference scheme).  The steady state is the same full-mode fixed
  point with a zero capacitance rate ``C/dt`` (``dt = inf``);
* ``mode="fast"`` -- field material matrices frozen at the initial
  temperature so both base matrices can be LU-factorized *once*; the only
  matrix changes left are the rank-``n_segments`` bonding wire stamps,
  handled by Sherman-Morrison-Woodbury updates, and the radiation
  nonlinearity, linearized at the initial temperature into the thermal
  base with its remainder lagged on the right-hand side.  This is the
  Monte Carlo fast path: the wire nonlinearities (the dominant
  electrothermal feedback of this application) are retained exactly.
  The wire feedback of a step converges in port space (the wire-end
  node temperatures), the field temperatures follow from one thermal
  solve, and an M-matrix bound certifies the lagged radiation.

Every step advances an ``(n, S)`` temperature block, one column per
wire-length sample, and one time-integration loop drives it:
:meth:`CoupledSolver.solve_transient` is that loop at ``S = 1`` with the
bound lengths, :meth:`BlockedCoupledSolver.solve_transient_block` the
same loop over a Monte Carlo block.  Full mode reassembles per sample,
so it steps ``S = 1`` blocks only.
"""

from collections import OrderedDict, deque

import numpy as np
import scipy.sparse as sp

from ..errors import AssemblyError, ConvergenceError, SolverError
from ..fit.assembly import FITDiscretization
from ..fit.boundary import apply_dirichlet, combine_dirichlet
from ..fit.joule import joule_cell_power_density
from ..fit.material_matrices import conductance_diagonal
from ..solvers.linear import LinearSolver
from ..solvers.newton import fixed_point
from ..solvers.time_integration import TimeGrid
from ..solvers.woodbury import WoodburySolver
from ..telemetry import tracing as telemetry
from .electrical import embed_grid_matrix
from .quantities import StationaryResult, TransientResult

_MODES = ("full", "fast")
#: Fast-mode bound on the per-``dt`` thermal solver map; the least
#: recently used solver is evicted first (see
#: :meth:`CoupledSolver._fast_thermal_step`).
_MAX_THERMAL_SOLVERS = 8


class CoupledSolver:
    """Transient/stationary solver bound to one problem instance.

    Parameters
    ----------
    problem:
        The :class:`~repro.coupled.problem.ElectrothermalProblem`.
    mode:
        ``"full"`` (reference) or ``"fast"`` (frozen field materials +
        Woodbury wire updates; see module docstring).
    tolerance:
        Fixed-point tolerance on the temperature update [K].
    max_iterations:
        Fixed-point iteration budget per time step (fast mode: per loop,
        for the port iterations and for the outer passes alike).
    factorization_cache:
        Optional :class:`~repro.solvers.cache.FactorizationCache` shared
        across solver instances; fast-mode base LUs are looked up there,
        so rebuilding the solver for the same problem in one process
        (campaign workers, resumed runs) skips the factorization cost.
    """

    def __init__(
        self,
        problem,
        mode="full",
        tolerance=1.0e-6,
        max_iterations=40,
        factorization_cache=None,
    ):
        if mode not in _MODES:
            raise SolverError(f"unknown mode {mode!r}; expected one of {_MODES}")
        self.problem = problem
        self.mode = mode
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self.factorization_cache = factorization_cache

        self.discretization = FITDiscretization(problem.grid, problem.materials)
        self.topology = problem.topology
        n_grid = problem.grid.num_nodes
        self.n_grid = n_grid
        self.total_size = problem.total_size

        # Heat capacitance over all unknowns (grid + internal wire nodes).
        capacitance = np.zeros(self.total_size)
        capacitance[:n_grid] = self.discretization.thermal_capacitance()
        if self.topology.num_extra_nodes:
            capacitance[n_grid:] = self.topology.extra_heat_capacities()
        self.capacitance = capacitance

        # Thermal boundary structures (grid block only).
        dual = self.discretization.dual
        self.conv_diag = np.zeros(self.total_size)
        self.conv_rhs = np.zeros(self.total_size)
        if problem.convection is not None:
            diag, rhs = problem.convection.contributions(dual)
            self.conv_diag[:n_grid] = diag
            self.conv_rhs[:n_grid] = rhs
        self.rad_coeff = np.zeros(self.total_size)
        if problem.radiation is not None:
            self.rad_coeff[:n_grid] = problem.radiation.node_coefficients(dual)
        self.t_ambient_rad = (
            problem.radiation.t_ambient if problem.radiation is not None else 0.0
        )
        #: The radiating nodes (nonzero ``rad_coeff``), where the fast
        #: step evaluates the explicit radiative source.
        self._rad_nodes = np.flatnonzero(self.rad_coeff)
        #: ``4 rad_coeff T_initial^3``: the radiation linearized at the
        #: initial temperature, which the fast thermal base carries on
        #: its diagonal (a nonnegative shift, so it stays an M-matrix).
        self._rad_linear = 4.0 * self.rad_coeff * problem.t_initial**3

        # Electrical Dirichlet reduction pattern (constant across solves).
        if not problem.electrical_dirichlet:
            raise AssemblyError(
                "the coupled problem needs electrical Dirichlet (PEC) nodes"
            )
        fixed, fixed_values = combine_dirichlet(
            problem.electrical_dirichlet, self.total_size
        )
        mask = np.ones(self.total_size, dtype=bool)
        mask[fixed] = False
        self.el_fixed = fixed
        self.el_fixed_values = fixed_values
        self.el_free = np.nonzero(mask)[0]

        self._linear_el = LinearSolver()
        self._linear_th = LinearSolver()
        #: Drive scale of the current time level (waveform support).
        self._el_scale = 1.0
        self._fast_th_solvers = OrderedDict()
        if self.mode == "fast":
            self._setup_fast()

    # ------------------------------------------------------------------
    # Monte Carlo support
    # ------------------------------------------------------------------
    def set_wire_lengths(self, lengths):
        """Rebind the wire lengths without rebuilding any factorization.

        The wire stamps (and therefore both Woodbury bases, the Dirichlet
        reduction and the FIT operators) are length-independent -- only the
        conductances fed into the solves change.  This makes the per-sample
        cost of a Monte Carlo study a pure solve cost.

        For multi-segment wires the internal node heat capacities scale
        with the segment length, so the thermal base is invalidated in
        that case.
        """
        lengths = np.asarray(lengths, dtype=float).ravel()
        if lengths.size != len(self.topology.wires):
            raise SolverError(
                f"expected {len(self.topology.wires)} wire lengths, got "
                f"{lengths.size}"
            )
        new_wires = [
            wire.with_length(length)
            for wire, length in zip(self.topology.wires, lengths)
        ]
        self.topology.wires = new_wires
        self.problem.wires = new_wires
        if self.topology.num_extra_nodes:
            self.capacitance[self.n_grid:] = (
                self.topology.extra_heat_capacities()
            )
            if self.mode == "fast":
                self._fast_th_solvers.clear()

    # ------------------------------------------------------------------
    # Assembly helpers
    # ------------------------------------------------------------------
    def _field_diagonals(self, grid_temperatures):
        """Per-edge sigma and lambda conductance diagonals at the iterate."""
        cell_t = self.discretization.cell_temperatures(grid_temperatures)
        sigma = self.discretization.materials.sigma_cells(cell_t)
        lam = self.discretization.materials.lambda_cells(cell_t)
        dual = self.discretization.dual
        return (
            conductance_diagonal(dual, sigma),
            conductance_diagonal(dual, lam),
            cell_t,
        )

    def _wire_stamp_matrix(self, conductances):
        """Sparse sum of all segment stamps with the given conductances."""
        from ..bondwire.lumped import stamp_conductance_matrix

        stamps = [stamp for _, stamp in self.topology.flat_segments]
        return stamp_conductance_matrix(self.total_size, stamps, conductances)

    def _reduce_electrical(self, matrix):
        """Apply the (precomputed) electrical Dirichlet reduction.

        The contact values are scaled by the current drive waveform value
        (``1.0`` for the paper's constant drive).
        """
        matrix = matrix.tocsr()
        a_ff = matrix[self.el_free][:, self.el_free]
        a_fc = matrix[self.el_free][:, self.el_fixed]
        rhs = -(a_fc @ (self.el_fixed_values * self._el_scale))
        return a_ff.tocsc(), rhs

    def _expand_electrical(self, free_solution):
        full = np.empty(self.total_size)
        full[self.el_free] = free_solution
        full[self.el_fixed] = self.el_fixed_values * self._el_scale
        return full

    # ------------------------------------------------------------------
    # Fast-path setup
    # ------------------------------------------------------------------
    def _setup_fast(self):
        problem = self.problem
        if problem.thermal_dirichlet:
            raise SolverError(
                "fast mode does not support thermal Dirichlet conditions; "
                "use mode='full'"
            )
        wire_nodes = set()
        for chain in self.topology.wire_nodes:
            wire_nodes.update(chain)
        if wire_nodes.intersection(self.el_fixed.tolist()):
            raise SolverError(
                "fast mode requires wire contact nodes to be free (not PEC "
                "Dirichlet); use mode='full'"
            )
        freeze = np.full(self.n_grid, problem.t_initial)
        sigma_diag, lambda_diag, cell_t = self._field_diagonals(freeze)
        self._fast_sigma_cells = self.discretization.materials.sigma_cells(cell_t)

        k_el = embed_grid_matrix(
            self.discretization.stiffness_from_diagonal(sigma_diag),
            self.total_size,
        )
        a_el, rhs_el = self._reduce_electrical(k_el)
        u_full = self.topology.segment_incidence_matrix()
        # The Woodbury solvers factorize the wire-free bases with the
        # nominal stamps in place: the construction-time lengths at the
        # initial temperature.  Per-sample lengths and iterates then only
        # move the conductances away from these values.
        initial = np.full(self.total_size, problem.t_initial)
        self._fast_g_th0 = self.topology.segment_thermal_conductances(initial)
        self._fast_el = WoodburySolver(
            a_el, u_full[self.el_free],
            self.topology.segment_electrical_conductances(initial),
            cache=self.factorization_cache,
        )

        k_th = embed_grid_matrix(
            self.discretization.stiffness_from_diagonal(lambda_diag),
            self.total_size,
        )
        self._fast_u = u_full
        self._fast_k_th = k_th
        self._fast_th_solvers.clear()  # (re)built per dt on demand

        # Length-invariant segment data of the fast step (material, cross
        # section, segment count); only the lengths vary per sample.
        topology = self.topology
        self._seg_start, self._seg_end, self._seg_wire = (
            topology.segment_node_indices()
        )
        # Segments grouped by material object, one conductivity call per
        # group (all 12 Date16 wires share one material).
        materials = {}
        for segment, wire in enumerate(self._seg_wire):
            material = topology.wires[wire].material
            materials.setdefault(id(material), (material, []))[1].append(
                segment
            )
        self._segment_materials = [
            (material, np.array(segments))
            for material, segments in materials.values()
        ]
        # The port nodes: the distinct wire-end nodes, in port order.
        # Segment ``j`` runs from port ``_port_start[j]`` to port
        # ``_port_end[j]``.
        self._ports, port_index = np.unique(
            np.concatenate([self._seg_start, self._seg_end]),
            return_inverse=True,
        )
        self._port_start, self._port_end = np.split(
            port_index, [self._seg_start.size]
        )
        self._areas = np.array(
            [wire.cross_section_area for wire in topology.wires]
        )
        self._num_segments = np.array(
            [wire.num_segments for wire in topology.wires], dtype=int
        )

        # The potential basis of the frozen-sigma electrical solve.  A
        # sample's potentials are ``Phi @ z`` with ``z = [scale; c]``:
        # the Woodbury solution is ``scale x0 - W c`` for the unit-drive
        # solution ``x0 = A_nom^-1 b`` and the coefficients ``c`` of
        # ``WoodburySolver.coefficients``.  Column 0 holds ``x0`` and the
        # unit contact values, the other columns ``-W`` and zero contact
        # values.  Field components and wire drops are linear in the
        # potentials, so their bases are taken once here as well, stacked
        # into one ``(3 cells + k, k + 1)`` matrix.
        el = self._fast_el
        unit_drive = el.base_solve(rhs_el)
        self._fast_el_projected = el.update_vectors.T @ unit_drive
        basis = np.zeros((self.total_size, el.rank + 1))
        basis[self.el_free, 0] = unit_drive
        basis[self.el_fixed, 0] = self.el_fixed_values
        basis[self.el_free, 1:] = -el.base_inverse_u
        self._fast_phi_basis = basis
        self._fast_joule_basis = np.vstack(
            self.discretization.cell_field_components(basis[: self.n_grid])
            + (basis[self._seg_start] - basis[self._seg_end],)
        )
        self._fast_drop_basis = self._fast_joule_basis[
            3 * self.discretization.cell_volumes.size:
        ]

    def _fast_thermal_step(self, dt):
        """The per-dt :class:`_ThermalStep` (bounded LRU map).

        A fixed grid has one ``dt``, so every step of every transient on
        that grid reuses one entry.  A solver that alternates between
        grids -- a coarse and a refined grid of a two-level time
        estimator, or the step sizes of a convergence study -- would
        rebuild (and re-fingerprint) the base on each switch with a
        single-slot memo, so the map keeps the last
        ``_MAX_THERMAL_SOLVERS`` distinct step sizes alive.
        """
        key = float(dt)
        step = self._fast_th_solvers.get(key)
        if step is not None:
            self._fast_th_solvers.move_to_end(key)
            return step
        base = (
            sp.diags(self.capacitance / dt)
            + self._fast_k_th
            + sp.diags(self.conv_diag + self._rad_linear)
        ).tocsc()
        solver = WoodburySolver(base, self._fast_u, self._fast_g_th0,
                                cache=self.factorization_cache)
        step = _ThermalStep(self, solver)
        telemetry.increment("solver.thermal_builds")
        self._fast_th_solvers[key] = step
        while len(self._fast_th_solvers) > _MAX_THERMAL_SOLVERS:
            self._fast_th_solvers.popitem(last=False)
        return step

    # ------------------------------------------------------------------
    # Single-iterate physics evaluation
    # ------------------------------------------------------------------
    def _solve_electrical_full(self, t_star):
        sigma_diag, lambda_diag, cell_t = self._field_diagonals(
            t_star[: self.n_grid]
        )
        k_el = embed_grid_matrix(
            self.discretization.stiffness_from_diagonal(sigma_diag),
            self.total_size,
        )
        g_el = self.topology.segment_electrical_conductances(t_star)
        matrix = k_el + self._wire_stamp_matrix(g_el)
        a_ff, rhs = self._reduce_electrical(matrix)
        phi = self._expand_electrical(self._linear_el.solve(a_ff, rhs))
        return phi, cell_t, lambda_diag

    def _segment_conductances_block(self, seg_t, lengths, electrical):
        """``(k, S)`` per-segment conductances at the iterate block.

        ``lengths`` is the ``(S, W)`` sample block.  Matches the
        ``LumpedBondWire.segment_*_conductance`` operation order
        (``sigma * A / L * n_seg``), vectorized over the segments of
        each material and the sample axis.
        """
        conductances = np.empty_like(seg_t)
        for material, segments in self._segment_materials:
            wires = self._seg_wire[segments]
            conductivity = (
                material.electrical_conductivity(seg_t[segments])
                if electrical
                else material.thermal_conductivity(seg_t[segments])
            )
            conductances[segments] = (
                conductivity * self._areas[wires, None] / lengths[:, wires].T
                * self._num_segments[wires, None]
            )
        return conductances

    def _potential_coefficients(self, g_el):
        """``z = [scale; c]`` ``(k + 1, S)`` of the electrical solve.

        ``c`` are the Woodbury coefficients of the frozen-sigma system
        at the ``(k, S)`` wire conductance block; the potentials are
        ``_fast_phi_basis @ z``.
        """
        el = self._fast_el
        coefficients = el.coefficients(
            g_el.T, self._el_scale * self._fast_el_projected
        )
        z = np.empty((el.rank + 1, g_el.shape[1]))
        z[0] = self._el_scale
        z[1:] = coefficients.T
        return z

    def _joule_block(self, g_el):
        """Electrical solve and Joule node powers for the whole block.

        ``g_el`` is the ``(k, S)`` wire conductance block.  The solve
        stops at the ``k`` Woodbury coefficients: field components and
        wire drops come from the bases of :meth:`_setup_fast` applied to
        ``z = [scale; c]``.  Returns ``z`` ``(k + 1, S)`` (the
        potentials are ``_fast_phi_basis @ z``), the node power block
        ``(n, S)``, per-wire powers ``(W, S)`` and the field dissipation
        ``(S,)``.
        """
        disc = self.discretization
        z = self._potential_coefficients(g_el)
        cells = disc.cell_volumes.size
        values = _basis_product(self._fast_joule_basis, z)
        ex, ey, ez = (values[i * cells:(i + 1) * cells] for i in range(3))
        density = self._fast_sigma_cells[:, None] * (
            ex * ex + ey * ey + ez * ez
        )
        q = np.zeros((self.total_size, z.shape[1]))
        q[: self.n_grid] = disc.node_power_from_cells(density)
        field_power = disc.cell_volumes @ density
        drop = values[3 * cells:]
        power = g_el * drop * drop
        q_wire = np.zeros_like(q)
        np.add.at(q_wire, self._seg_start, 0.5 * power)
        np.add.at(q_wire, self._seg_end, 0.5 * power)
        wire_power = np.zeros((len(self.topology.wires), z.shape[1]))
        np.add.at(wire_power, self._seg_wire, power)
        return z, q + q_wire, wire_power, field_power

    def _radiation_block(self, t_star):
        """Explicit radiative source of the iterate block on its support.

        Rows ``_rad_nodes`` of ``rad_coeff (T_amb^4 - T*^4)``; the source
        is zero on every other node.
        """
        nodes = self._rad_nodes
        return self.rad_coeff[nodes, None] * (
            self.t_ambient_rad**4 - t_star[nodes] ** 4
        )

    def _radiation_remainder(self, t_star):
        """The lagged radiative source of the fast step on its support.

        The radiation minus its linearization at the initial
        temperature, ``rad(T*) + 4 rad_coeff T_initial^3 T*``: the fast
        thermal base carries the linear part, so a fixed point of the
        fast step solves the radiating system itself.
        """
        nodes = self._rad_nodes
        return (self._radiation_block(t_star)
                + self._rad_linear[nodes, None] * t_star[nodes])

    # ------------------------------------------------------------------
    # Time stepping
    # ------------------------------------------------------------------
    def _step_full(self, t_old, dt, guess, max_iterations, damping=1.0):
        """The full-mode fixed point of one implicit Euler step.

        Starts from ``guess`` (``t_old`` when ``None``) and returns
        ``(T_new, iterations, phi, wire_powers, field_power)``.
        ``dt = inf`` zeroes the capacitance rate ``C/dt``: the steady
        state of :meth:`solve_stationary`.
        """
        capacitance_dt = self.capacitance / dt
        outputs = {}

        def advance(t_star):
            phi, cell_t, lambda_diag = self._solve_electrical_full(t_star)
            density = joule_cell_power_density(
                self.discretization, phi[: self.n_grid], cell_t
            )
            q, wire_powers = self.topology.joule_powers(phi, t_star)
            q[: self.n_grid] += self.discretization.node_power_from_cells(
                density
            )
            k_th = embed_grid_matrix(
                self.discretization.stiffness_from_diagonal(lambda_diag),
                self.total_size,
            )
            g_th = self.topology.segment_thermal_conductances(t_star)
            k_th = k_th + self._wire_stamp_matrix(g_th)
            diagonal = self.conv_diag.copy()
            rhs_bc = self.conv_rhs.copy()
            if self.problem.radiation is not None:
                rad_diag, rad_rhs = self.problem.radiation.linearized_contributions(
                    self.discretization.dual, t_star[: self.n_grid]
                )
                diagonal[: self.n_grid] += rad_diag
                rhs_bc[: self.n_grid] += rad_rhs
            matrix = (
                sp.diags(capacitance_dt) + k_th + sp.diags(diagonal)
            ).tocsr()
            rhs = capacitance_dt * t_old + q + rhs_bc
            if self.problem.thermal_dirichlet:
                reduced = apply_dirichlet(
                    matrix, rhs, self.problem.thermal_dirichlet
                )
                t_new = reduced.expand(
                    self._linear_th.solve(reduced.matrix, reduced.rhs)
                )
            else:
                t_new = self._linear_th.solve(matrix.tocsc(), rhs)
            outputs["phi"] = phi
            outputs["wire_powers"] = wire_powers
            outputs["field_power"] = float(
                np.dot(density, self.discretization.cell_volumes)
            )
            return t_new

        result = fixed_point(
            advance,
            t_old if guess is None else guess,
            tolerance=self.tolerance,
            max_iterations=max_iterations,
            damping=damping,
        )
        return (result.solution, result.iterations, outputs["phi"],
                outputs["wire_powers"], outputs["field_power"])

    def _step_fast(self, t_old, dt, lengths, guess=None):
        """One fast-mode implicit Euler step for an ``(n, S)`` block.

        Column ``s`` of ``t_old`` (and of the optional warm start
        ``guess``) is the sample with wire lengths row ``s`` of the
        ``(S, W)`` block ``lengths``; the drive scale is ``_el_scale``.
        Returns ``(T_new, passes, phi, wire_powers, field_power)``
        with shapes ``(n, S)``, ``(S,)``, ``(n, S)``, ``(W, S)`` and
        ``(S,)``.

        Each outer pass lags the radiation remainder at the current
        iterate, converges the wire feedback in port space
        (:meth:`_port_fixed_point`), then takes one thermal solve and
        one Joule evaluation at the wire conductances of the converged
        port temperatures.  A sample is accepted once the M-matrix
        bound ``|A(g)^-1 delta| <= |delta|_inf A(g)^-1 1_R`` puts the
        change the next pass would make through the radiation update
        ``delta`` below the tolerance; its outputs are those of its
        accepting pass.  Both loops run on active-sample masks, and
        ``passes`` counts each sample's thermal solves.
        """
        step = self._fast_thermal_step(dt)
        capacitance_dt = self.capacitance / dt
        num_samples = t_old.shape[1]
        current = np.array(t_old if guess is None else guess, dtype=float)
        active = np.arange(num_samples)
        passes = np.zeros(num_samples, dtype=int)
        port_iterations = 0
        z_out = np.zeros((self._fast_el.rank + 1, num_samples))
        wire_power_out = np.zeros((len(self.topology.wires), num_samples))
        field_power_out = np.zeros(num_samples)
        bound = np.zeros(num_samples)
        for iteration in range(1, self.max_iterations + 1):
            t_star = current[:, active]
            lagged = self._radiation_remainder(t_star)
            rhs = (capacitance_dt[:, None] * t_old[:, active]
                   + self.conv_rhs[:, None])
            rhs[self._rad_nodes] += lagged
            sample_lengths = lengths[active]
            ports, count = self._port_fixed_point(
                step, rhs, t_star[self._ports], sample_lengths
            )
            port_iterations += count
            g_el, g_th = self._port_conductances(ports, sample_lengths)
            z, q, wire_power, field_power = self._joule_block(g_el)
            q += rhs
            t_new = step.solver.solve_batch(g_th.T, q)
            current[:, active] = t_new
            z_out[:, active] = z
            wire_power_out[:, active] = wire_power
            field_power_out[active] = field_power
            if self._rad_nodes.size:
                change = np.max(
                    np.abs(self._radiation_remainder(t_new) - lagged),
                    axis=0,
                )
                bound[active] = change * step.radiation_gain(g_th)
            converged = bound[active] < self.tolerance
            passes[active[converged]] = iteration
            active = active[~converged]
            if not active.size:
                break
        telemetry.increment("solver.port_iterations", port_iterations)
        if active.size:
            worst = float(np.max(bound[active]))
            raise ConvergenceError(
                f"radiation update not certified within "
                f"{self.max_iterations} passes for {active.size}/"
                f"{num_samples} blocked samples (worst bound "
                f"{worst:.3e}, tol {self.tolerance:.3e})",
                iterations=self.max_iterations,
                residual=worst,
            )
        return (current, passes,
                _basis_product(self._fast_phi_basis, z_out),
                wire_power_out, field_power_out)

    def _port_conductances(self, port_t, lengths):
        """``(k, S)`` electrical and thermal wire conductances at the
        ``(m, S)`` port temperatures for the ``(S, W)`` lengths."""
        seg_t = 0.5 * (port_t[self._port_start] + port_t[self._port_end])
        return (
            self._segment_conductances_block(seg_t, lengths, electrical=True),
            self._segment_conductances_block(seg_t, lengths, electrical=False),
        )

    def _port_fixed_point(self, step, rhs, port_t, lengths):
        """The wire feedback of one pass, iterated in port space.

        ``rhs`` is the ``(n, S)`` wire-free right-hand side of the pass
        (lagged radiation included), ``port_t`` the ``(m, S)`` starting
        port temperatures and ``lengths`` the ``(S, W)`` lengths.
        Iterates ``p <- ports of A(g(p))^-1 (rhs + q(p))`` with
        ``(m, S)`` and ``(k, S)`` algebra only (see
        :class:`_ThermalStep`) until no port moves by ``tolerance``,
        on an active-sample mask.  Returns the converged ``(m, S)``
        port temperatures (each sample's last iterate) and the number
        of sample-iterations taken.
        """
        thermal = step.solver
        projected_rhs = _basis_product(step.port_green, rhs)
        rows, cols = np.triu_indices(self._fast_el.rank + 1)
        port_t = port_t.copy()
        residual = np.zeros(port_t.shape[1])
        active = np.arange(port_t.shape[1])
        count = 0
        for _ in range(self.max_iterations):
            ports = port_t[:, active]
            g_el, g_th = self._port_conductances(ports, lengths[active])
            z = self._potential_coefficients(g_el)
            drop = _basis_product(self._fast_drop_basis, z)
            x0 = (
                projected_rhs[:, active]
                + _basis_product(step.field_green, z[rows] * z[cols])
                + _basis_product(step.wire_green, g_el * drop * drop)
            )
            coefficients = thermal.coefficients(
                g_th.T, (x0[self._port_start] - x0[self._port_end]).T
            )
            new_ports = x0 - _basis_product(
                step.port_inverse_u, coefficients.T
            )
            step_norm = np.max(np.abs(new_ports - ports), axis=0,
                               initial=0.0)
            port_t[:, active] = new_ports
            residual[active] = step_norm
            count += active.size
            active = active[~(step_norm < self.tolerance)]
            if not active.size:
                return port_t, count
        worst = float(np.max(residual[active]))
        raise ConvergenceError(
            f"port fixed point did not converge within "
            f"{self.max_iterations} iterations for {active.size}/"
            f"{port_t.shape[1]} blocked samples (worst step norm "
            f"{worst:.3e}, tol {self.tolerance:.3e})",
            iterations=self.max_iterations,
            residual=worst,
        )

    def _bound_lengths(self):
        """The ``(1, W)`` length block of the bound wires."""
        return np.array([[wire.length for wire in self.topology.wires]])

    def _step(self, t_old, dt, lengths, guess=None):
        """One implicit Euler step of an ``(n, S)`` block (either mode).

        Fast mode is :meth:`_step_fast` over the ``(S, W)`` ``lengths``.
        Full mode reassembles from the bound wires, so it takes one
        column (``S = 1``) through :meth:`_step_full`.  Returns
        ``(T_new, iterations, phi, wire_powers, field_power)`` with
        shapes ``(n, S)``, ``(S,)``, ``(n, S)``, ``(W, S)`` and ``(S,)``.
        """
        num_samples = t_old.shape[1]
        if self.mode == "fast":
            outputs = self._step_fast(t_old, dt, lengths, guess=guess)
        elif num_samples != 1:
            raise SolverError(
                f"full mode steps one sample at a time, got a block of "
                f"{num_samples}"
            )
        else:
            t_new, iterations, phi, wire_powers, field_power = (
                self._step_full(t_old[:, 0], dt,
                                None if guess is None else guess[:, 0],
                                self.max_iterations)
            )
            outputs = (t_new[:, None], np.array([iterations]), phi[:, None],
                       wire_powers[:, None], np.array([field_power]))
        telemetry.increment("solver.coupled_steps", num_samples)
        telemetry.increment("solver.fixed_point_iterations",
                            int(outputs[1].sum()))
        return outputs

    def _integrate(self, time_grid, lengths, waveform=None,
                   store_fields=False):
        """The time-integration loop over an ``(S, W)`` length block.

        Every step scales the drive by ``waveform`` at its new time
        level and, from the second step on, starts its fixed point from
        the extrapolation of the accepted states (linear, then
        quadratic; see :func:`_extrapolated_guess`) -- the converged
        state is the same within the fixed-point tolerance, reached in
        fewer iterations.  Returns the :class:`BlockedTransientResult`,
        the ``(n, S)`` potentials of the last step and, with
        ``store_fields``, the ``(n, S)`` state of every time point
        (``None`` otherwise).
        """
        from .excitation import as_waveform

        if not isinstance(time_grid, TimeGrid):
            raise SolverError("time_grid must be a TimeGrid")
        drive = as_waveform(waveform)
        num_samples = lengths.shape[0]
        temperatures = np.full(
            (self.total_size, num_samples), self.problem.t_initial
        )
        topology = self.topology
        wire_t = [topology.wire_temperatures(temperatures)]
        wire_peak = [topology.wire_peak_temperatures(temperatures)]
        wire_p = [np.zeros((len(topology.wires), num_samples))]
        field_p = [np.zeros(num_samples)]
        iterations = []
        fields = [temperatures.copy()] if store_fields else None
        phi = np.zeros((self.total_size, num_samples))
        history = deque([temperatures], maxlen=3)
        times = time_grid.times
        try:
            for step_index in range(time_grid.num_steps):
                self._el_scale = float(drive(times[step_index + 1]))
                temperatures, n_iter, phi, wire_power, field_power = (
                    self._step(temperatures, time_grid.dt, lengths,
                               guess=_extrapolated_guess(history))
                )
                history.append(temperatures)
                # One loop step advances the whole block; ``_step``
                # counts the per-sample steps.
                telemetry.increment("solver.blocked_steps")
                iterations.append(n_iter)
                wire_t.append(topology.wire_temperatures(temperatures))
                wire_peak.append(topology.wire_peak_temperatures(temperatures))
                wire_p.append(wire_power)
                field_p.append(field_power)
                if store_fields:
                    fields.append(temperatures.copy())
        finally:
            # Restore the constant drive for any later stationary solve,
            # also when a step fails to converge.
            self._el_scale = 1.0

        def sample_major(per_step):
            # list of (W, S) per time point -> (S, P, W)
            return np.transpose(np.stack(per_step), (2, 0, 1))

        result = BlockedTransientResult(
            times=times,
            wire_temperatures=sample_major(wire_t),
            wire_peak_temperatures=sample_major(wire_peak),
            wire_powers=sample_major(wire_p),
            field_joule_power=np.stack(field_p).T,
            final_temperatures=temperatures.T.copy(),
            iterations_per_step=np.array(
                iterations, dtype=int
            ).reshape(-1, num_samples).T,
            wire_names=self.problem.wire_names(),
        )
        return result, phi, fields

    def solve_transient(self, time_grid, store_fields=False, waveform=None):
        """Integrate the coupled system over a :class:`TimeGrid`.

        The one integration loop at ``S = 1`` with the bound wire
        lengths; see :meth:`_integrate` for the drive and the warm
        starts.

        Parameters
        ----------
        time_grid:
            The time axis (paper: 50 s, 51 points).
        store_fields:
            When ``True``, the full temperature field at every time point
            is kept on the result object (``result.fields``).
        waveform:
            Optional drive waveform (a number, callable ``w(t)`` or
            :class:`~repro.coupled.excitation.Waveform`) scaling the
            contact potentials over time; evaluated at the *new* time
            level of each implicit Euler step.  ``None`` is the paper's
            constant drive.

        Returns
        -------
        :class:`~repro.coupled.quantities.TransientResult`
        """
        block, phi, fields = self._integrate(
            time_grid, self._bound_lengths(), waveform, store_fields
        )
        result = TransientResult(
            times=time_grid.times,
            wire_temperatures=block.wire_temperatures[0],
            wire_peak_temperatures=block.wire_peak_temperatures[0],
            wire_powers=block.wire_powers[0],
            field_joule_power=block.field_joule_power[0],
            final_temperatures=block.final_temperatures[0],
            final_potentials=phi[:, 0],
            iterations_per_step=block.iterations_per_step[0].tolist(),
            wire_names=block.wire_names,
        )
        if store_fields:
            result.fields = [field[:, 0] for field in fields]
        return result

    def solve_stationary(self, max_iterations=200, damping=0.8):
        """Steady state of the coupled system (d/dt = 0).

        The full-mode fixed point of :meth:`_step_full` at a zero
        capacitance rate, in either mode.  Requires a heat escape path
        (convection, radiation or thermal Dirichlet), otherwise the
        thermal operator is singular.
        """
        problem = self.problem
        if (
            problem.convection is None
            and problem.radiation is None
            and not problem.thermal_dirichlet
        ):
            raise SolverError(
                "steady state needs convection, radiation or a thermal "
                "Dirichlet condition to be well-posed"
            )
        temperatures, iterations, phi, wire_powers, field_power = (
            self._step_full(problem.initial_temperatures(), np.inf, None,
                            max_iterations, damping)
        )
        return StationaryResult(
            temperatures=temperatures,
            potentials=phi,
            wire_temperatures=self.topology.wire_temperatures(temperatures),
            wire_powers=wire_powers,
            field_joule_power=field_power,
            iterations=iterations,
            wire_names=problem.wire_names(),
        )


def _basis_product(basis, z):
    """``basis @ z`` with every column computed by the same kernel.

    numpy sends a one-column product to BLAS gemv, whose summation
    order differs from gemm's; OpenBLAS's gemm sums every entry in the
    same order for any number of columns.  Running one column as two
    keeps a sample's values identical whether it is advanced alone
    (``S = 1``), in a block, or as the last active column of one.
    """
    if z.shape[1] == 1:
        return (basis @ np.repeat(z, 2, axis=1))[:, :1]
    return basis @ z


class _ThermalStep:
    """The per-``dt`` fast thermal solver and its port-space operators.

    The ports are the ``m`` distinct wire-end nodes: the only nodes whose
    temperatures the wire conductances and Joule powers read.  The
    nominally stamped base ``A_nom`` is symmetric, so the port values of
    ``A_nom^-1 r`` are ``G^T r`` with ``G = A_nom^-1 E`` for the port
    indicator columns ``E``, and those of the stamped solution follow
    from the Woodbury coefficients (``x = x0 - W c``, ``W[ports]``).

    Attributes
    ----------
    solver:
        The :class:`~repro.solvers.woodbury.WoodburySolver` of the base.
    port_green:
        ``(m, n)`` ``G^T``.
    field_green:
        ``(m, (k + 1)(k + 2) / 2)`` port values of ``A_nom^-1`` applied
        to the field Joule node power, which is a quadratic form in
        ``z = [scale; c]``: one column per product ``z_a z_b``,
        ``a <= b``, in ``numpy.triu_indices`` order.
    wire_green:
        ``(m, k)`` the same for a unit segment Joule power, split half
        and half over the segment's end nodes.
    port_inverse_u:
        ``(m, k)`` ``W[ports]``.
    radiation_green, radiation_projected:
        ``h = A_nom^-1 1_R`` over the radiating nodes ``R`` ``(n,)`` and
        ``U^T h`` ``(k,)``; ``None`` without radiation.
    """

    def __init__(self, coupled, solver):
        ports = coupled._ports
        # A_nom is symmetric: the rows of G^T are the port rows of A_nom^-1.
        indicator = np.zeros((solver.size, ports.size))
        indicator[ports, np.arange(ports.size)] = 1.0
        green_t = solver.base_solve(indicator).T
        self.solver = solver
        self.port_green = green_t
        self.field_green = _field_green(coupled, green_t[:, :coupled.n_grid])
        self.wire_green = 0.5 * (
            green_t[:, coupled._seg_start] + green_t[:, coupled._seg_end]
        )
        self.port_inverse_u = solver.base_inverse_u[ports]
        self.radiation_green = self.radiation_projected = None
        if coupled._rad_nodes.size:
            radiating = np.zeros(solver.size)
            radiating[coupled._rad_nodes] = 1.0
            self.radiation_green = solver.base_solve(radiating)
            self.radiation_projected = (
                solver.update_vectors.T @ self.radiation_green
            )

    def radiation_gain(self, conductances):
        """``max A(g)^-1 1_R`` per sample: ``(S,)`` for ``(k, S)`` ``g``.

        ``A(g)`` is an M-matrix, so ``A(g)^-1 1_R`` is nonnegative and
        bounds ``|A(g)^-1 delta|`` for every ``delta`` supported on the
        radiating nodes, scaled by ``|delta|_inf``.  It is ``h`` pushed
        through the Woodbury coefficients.
        """
        solver = self.solver
        coefficients = solver.coefficients(
            conductances.T, self.radiation_projected
        )
        gain = _basis_product(solver.base_inverse_u, coefficients.T)
        np.subtract(self.radiation_green[:, None], gain, out=gain)
        return np.max(gain, axis=0)


def _field_green(coupled, grid_green_t):
    """Port projection of the field Joule node power per ``z_a z_b``.

    The cell power density is ``sigma (Ex^2 + Ey^2 + Ez^2)`` with every
    component linear in ``z``, so the node power is
    ``sum_{a <= b} N_ab z_a z_b``.  ``grid_green_t`` is ``G^T`` over the
    grid nodes; the result is ``G^T N`` ``(m, (k + 1)(k + 2) / 2)``,
    built one column at a time so no ``(cells, (k + 1)(k + 2) / 2)``
    temporary is ever formed.
    """
    disc = coupled.discretization
    cells = disc.cell_volumes.size
    components = [
        coupled._fast_joule_basis[i * cells:(i + 1) * cells]
        for i in range(3)
    ]
    rows, cols = np.triu_indices(coupled._fast_joule_basis.shape[1])
    green = np.empty((grid_green_t.shape[0], rows.size))
    for column, (a, b) in enumerate(zip(rows, cols)):
        # z_a z_b appears twice in the square for a < b.
        density = (1.0 if a == b else 2.0) * coupled._fast_sigma_cells * sum(
            c[:, a] * c[:, b] for c in components
        )
        green[:, column] = grid_green_t @ disc.node_power_from_cells(density)
    return green


def _extrapolated_guess(history):
    """Warm start of the next fixed point from the accepted states.

    ``history`` holds the latest (up to three) accepted states of a
    constant-``dt`` run, oldest first: three give the quadratic
    ``3 T_n - 3 T_n-1 + T_n-2``, two the linear ``2 T_n - T_n-1`` and
    the initial state alone no guess.  Elementwise, so every column of
    a sample block gets exactly its ``S = 1`` guess.
    """
    if len(history) == 3:
        older, old, new = history
        return 3.0 * (new - old) + older
    if len(history) == 2:
        old, new = history
        return 2.0 * new - old
    return None


class BlockedTransientResult:
    """Traces of one sample-blocked transient (one chunk of MC samples).

    The per-sample counterpart of
    :class:`~repro.coupled.quantities.TransientResult` carries ``(P, W)``
    arrays; here every array gains a leading sample axis ``S``.

    Attributes
    ----------
    times:
        Time axis, length ``P``.
    wire_temperatures, wire_peak_temperatures, wire_powers:
        ``(S, P, W)`` per-sample traces.
    field_joule_power:
        ``(S, P)`` field dissipation per time point.
    final_temperatures:
        ``(S, n)`` final temperature states.
    iterations_per_step:
        ``(S, P - 1)`` fixed-point passes (thermal solves) per step.
    """

    def __init__(self, times, wire_temperatures, wire_peak_temperatures,
                 wire_powers, field_joule_power, final_temperatures,
                 iterations_per_step, wire_names):
        self.times = np.asarray(times, dtype=float)
        self.wire_temperatures = wire_temperatures
        self.wire_peak_temperatures = wire_peak_temperatures
        self.wire_powers = wire_powers
        self.field_joule_power = field_joule_power
        self.final_temperatures = final_temperatures
        self.iterations_per_step = iterations_per_step
        self.wire_names = list(wire_names)

    @property
    def num_samples(self):
        return self.wire_temperatures.shape[0]

    def __repr__(self):
        return (
            f"BlockedTransientResult(S={self.num_samples}, "
            f"P={self.times.size}, W={len(self.wire_names)})"
        )


class BlockedCoupledSolver:
    """Sample-blocked transients over a fast-mode :class:`CoupledSolver`.

    Binds ``(S, W)`` per-sample wire lengths and advances all ``S``
    samples of a Monte Carlo chunk through the same time grid at once:
    :meth:`solve_transient_block` is the wrapped solver's one
    integration loop over the bound block, whose port iterations and
    thermal solves run for the whole block at once
    (:meth:`~repro.solvers.woodbury.WoodburySolver.solve_batch`).  The
    per-sample :meth:`CoupledSolver.solve_transient` is the same loop at
    ``S = 1``; both share every factorization, including the per-``dt``
    thermal solver map.

    Requirements (checked at construction):

    * the wrapped solver runs ``mode="fast"`` (shared frozen bases);
    * single-segment wires only -- multi-segment wires put
      length-dependent heat capacities on internal nodes, which would
      need a per-sample capacitance (callers fall back to the per-sample
      loop for those).
    """

    def __init__(self, solver):
        if not isinstance(solver, CoupledSolver):
            raise SolverError(
                f"expected a CoupledSolver, got {type(solver).__name__}"
            )
        if solver.mode != "fast":
            raise SolverError(
                "blocked solves need the fast (Woodbury) mode; "
                "mode='full' reassembles per sample"
            )
        if solver.topology.num_extra_nodes:
            raise SolverError(
                "blocked solves support single-segment wires only "
                "(multi-segment internal heat capacities depend on the "
                "per-sample lengths); use the per-sample path"
            )
        self.solver = solver
        self.num_wires = len(solver.topology.wires)
        self._lengths = None

    def set_wire_lengths_block(self, lengths):
        """Bind the ``(S, W)`` per-sample wire lengths for the next solve.

        Like :meth:`CoupledSolver.set_wire_lengths`, this never touches a
        factorization -- lengths only scale the conductances fed into the
        blocked solves.
        """
        lengths = np.asarray(lengths, dtype=float)
        if lengths.ndim != 2 or lengths.shape[1] != self.num_wires:
            raise SolverError(
                f"expected an (S, {self.num_wires}) length block, got "
                f"shape {lengths.shape}"
            )
        if not np.all(lengths > 0.0):
            raise SolverError("wire lengths must be positive")
        self._lengths = lengths

    def solve_transient_block(self, time_grid, waveform=None):
        """Integrate all bound samples over a :class:`TimeGrid` at once.

        Requires :meth:`set_wire_lengths_block` first.  ``waveform``
        scales the contact potentials exactly like
        :meth:`CoupledSolver.solve_transient` -- the drive is shared by
        every sample, which is what lets the fast step keep the
        electrical solve in its precomputed unit-drive basis.

        Returns a :class:`BlockedTransientResult` whose sample ``s``
        reproduces the per-sample
        :meth:`CoupledSolver.solve_transient` traces for lengths row
        ``s`` up to floating-point summation-order differences of the
        batched products.
        """
        if self._lengths is None:
            raise SolverError(
                "no sample block bound; call set_wire_lengths_block first"
            )
        return self.solver._integrate(time_grid, self._lengths, waveform)[0]
