"""The paper's Monte Carlo study, end to end (Sections IV-C, V-C, V-D).

``Date16UncertaintyStudy`` wires together the package problem, the fast
coupled solver and the UQ stack:

1. sample 12 iid relative elongations from the fitted N(0.17, 0.048^2),
2. map them to wire lengths ``L_j = d_j / (1 - delta_j)``,
3. run the coupled transient (implicit Euler, 50 s, 51 points),
4. record every wire's temperature trace,
5. report ``E_j(t)``, ``E_max(t)`` (eq. (7)), ``sigma_MC``, the
   ``sigma/sqrt(M)`` error (eq. (6)) and the 6-sigma band crossing of the
   critical temperature.

The same model callable feeds the sampling ablations (LHS/QMC), the sparse
collocation estimator and the Sobol sensitivity analysis.
"""

import numpy as np

from ..bondwire.failure import first_crossing_time
from ..coupled.electrothermal import BlockedCoupledSolver, CoupledSolver
from ..errors import SamplingError
from ..solvers.time_integration import TimeGrid
from ..uq.collocation import StochasticCollocation
from ..uq.distributions import NormalDistribution, TruncatedNormalDistribution
from ..uq.monte_carlo import BlockedModel, MonteCarloStudy
from ..uq.sensitivity import sobol_indices
from .chip_example import (
    Date16Parameters,
    build_date16_problem,
    wire_lengths_from_deltas,
)


class Date16StudyResult:
    """Statistics of the wire-temperature traces over the MC samples.

    Attributes
    ----------
    times:
        Time axis, length ``P``.
    mean, std:
        ``(P, W)`` per-wire expectation and standard deviation traces.
    num_samples:
        Sample count ``M``.
    t_critical:
        The failure threshold used for crossing analysis [K].
    """

    def __init__(self, times, mean, std, num_samples, t_critical,
                 wire_names, mc_result=None):
        self.times = np.asarray(times, dtype=float)
        self.mean = np.asarray(mean, dtype=float)
        self.std = np.asarray(std, dtype=float)
        self.num_samples = int(num_samples)
        self.t_critical = float(t_critical)
        self.wire_names = list(wire_names)
        #: The raw :class:`~repro.uq.monte_carlo.MonteCarloResult` (if any).
        self.mc_result = mc_result

    @property
    def hottest_wire_index(self):
        """Wire whose expected end temperature is highest."""
        return int(np.argmax(self.mean[-1]))

    def expectation_max_trace(self):
        """``E_max(t) = max_j E_j(t)`` -- eq. (7) of the paper."""
        return np.max(self.mean, axis=1)

    def hottest_wire_traces(self):
        """``(E(t), sigma(t))`` of the hottest wire (the Fig. 7 curves)."""
        j = self.hottest_wire_index
        return self.mean[:, j], self.std[:, j]

    @property
    def sigma_mc(self):
        """End-time standard deviation of the hottest wire (Section V-D)."""
        return float(self.std[-1, self.hottest_wire_index])

    @property
    def error_mc(self):
        """``sigma_MC / sqrt(M)`` -- eq. (6)."""
        return self.sigma_mc / np.sqrt(self.num_samples)

    def band_crossing_time(self, multiple=6.0):
        """First time ``E + multiple * sigma`` of the hottest wire crosses
        the critical temperature (None if never) -- the Fig. 7 claim."""
        mean, std = self.hottest_wire_traces()
        return first_crossing_time(
            self.times, mean + multiple * std, self.t_critical
        )

    def steady_state_time(self, tolerance=0.01):
        """First time the hottest-wire expectation is within ``tolerance``
        (relative to the total rise) of its final value."""
        mean, _ = self.hottest_wire_traces()
        rise = mean[-1] - mean[0]
        if rise <= 0.0:
            return float(self.times[0])
        settled = np.abs(mean - mean[-1]) <= tolerance * rise
        for index in range(settled.size):
            if np.all(settled[index:]):
                return float(self.times[index])
        return float(self.times[-1])

    def summary(self):
        """The Section V-D scalars as a dict."""
        mean, _ = self.hottest_wire_traces()
        return {
            "hottest_wire": self.wire_names[self.hottest_wire_index],
            "num_samples": self.num_samples,
            "E_end": float(mean[-1]),
            "sigma_mc": self.sigma_mc,
            "error_mc": self.error_mc,
            "band_crossing_time": self.band_crossing_time(),
            "steady_state_time": self.steady_state_time(),
            "t_critical": self.t_critical,
        }

    def __repr__(self):
        s = self.summary()
        return (
            f"Date16StudyResult(M={s['num_samples']}, hottest "
            f"{s['hottest_wire']}: E_end={s['E_end']:.2f} K, "
            f"sigma_MC={s['sigma_mc']:.3f} K, error_MC={s['error_mc']:.4f} K)"
        )


class Date16UncertaintyStudy:
    """Reusable model wrapper: elongation sample -> wire temperature traces.

    Parameters
    ----------
    parameters:
        :class:`~repro.package3d.chip_example.Date16Parameters` (defaults
        to Table II; override e.g. ``pair_voltage`` for stress studies).
    resolution:
        Mesh preset (``"coarse"`` recommended for MC).
    mode:
        Coupled solver mode; ``"fast"`` reuses all factorizations across
        samples and retains the wire nonlinearities exactly.
    truncate_elongation:
        When ``True`` (default) the fitted normal is truncated to
        [0, 0.9] -- geometrically admissible elongations; the plain
        normal's tail mass outside is ~2e-4.
    tolerance:
        Fixed-point tolerance [K] per time step.
    waveform:
        Optional drive waveform passed to every transient solve (the
        paper's study uses the constant drive; campaign scenarios may
        pulse or ramp the load).
    factorization_cache:
        Optional shared :class:`~repro.solvers.cache.FactorizationCache`
        for the fast-path base LUs (campaign worker reuse).
    time_stepping:
        ``"fixed"`` (default: the paper's uniform 51-point grid) or
        ``"adaptive"`` -- step-doubling implicit Euler
        (:func:`repro.solvers.adaptive.adaptive_implicit_euler`)
        controlled by ``adaptive_tolerance``, with the accepted states
        interpolated back onto the fixed grid so every QoI keeps its
        ``(P, W)`` shape.  Adaptive stepping supports the constant
        drive only (the step controller owns the time axis).
    adaptive_tolerance:
        Local-error tolerance [K] per adaptive step (default 1.0 -- the
        ROADMAP's operating point: ~1 K of local error keeps the
        interpolated traces within a fraction of a kelvin of the fixed
        grid at roughly half its solve count).
    quantize_dt:
        Adaptive mode only: snap every proposed step onto the geometric
        ladder :func:`repro.solvers.adaptive.dt_ladder` (default
        ``True``), so the per-dt thermal factorizations stay O(#ladder
        rungs) and the adaptive path beats the fixed grid on wall-clock
        even on a cold factorization cache.  ``False`` restores the raw
        controller (one fresh dt -- and factorization -- per update).
    adaptive_options:
        Optional dict of further :func:`adaptive_implicit_euler`
        controls: ``initial_dt`` (default: twice the fixed grid's dt,
        so the first-step doubling's half step lands ON the grid dt's
        ladder rung), ``min_dt`` (default 1e-3 s), ``max_dt``,
        ``safety``,
        ``accept_min_dt_steps`` and ``error_estimate`` (default
        ``"predictor"``: one coupled solve per attempted step with the
        divided-difference LTE estimate and a warm-started fixed point;
        ``"doubling"`` restores the three-solves-per-step doubling
        estimate).
    """

    #: ``adaptive_options`` keys forwarded to
    #: :func:`repro.solvers.adaptive.adaptive_implicit_euler`.
    _ADAPTIVE_OPTIONS = (
        "initial_dt", "min_dt", "max_dt", "safety", "accept_min_dt_steps",
        "error_estimate",
    )

    def __init__(
        self,
        parameters=None,
        resolution="coarse",
        mode="fast",
        num_segments=1,
        truncate_elongation=True,
        tolerance=1.0e-3,
        waveform=None,
        factorization_cache=None,
        time_stepping="fixed",
        adaptive_tolerance=1.0,
        quantize_dt=True,
        adaptive_options=None,
    ):
        self.parameters = parameters if parameters is not None else Date16Parameters()
        problem, mesh = build_date16_problem(
            parameters=self.parameters,
            resolution=resolution,
            num_segments=num_segments,
        )
        self.problem = problem
        self.mesh = mesh
        self.waveform = waveform
        self.solver = CoupledSolver(
            problem, mode=mode, tolerance=tolerance,
            factorization_cache=factorization_cache,
        )
        self.time_grid = TimeGrid.from_num_points(
            self.parameters.end_time, self.parameters.num_time_points
        )
        mu = self.parameters.elongation_mean
        sigma = self.parameters.elongation_std
        if truncate_elongation:
            self.elongation_distribution = TruncatedNormalDistribution(
                mu, sigma, 0.0, 0.9
            )
        else:
            self.elongation_distribution = NormalDistribution(mu, sigma)
        self.num_wires = len(problem.wires)
        self.evaluations = 0
        self.time_stepping = str(time_stepping)
        if self.time_stepping not in ("fixed", "adaptive"):
            raise SamplingError(
                f"time_stepping must be 'fixed' or 'adaptive', got "
                f"{time_stepping!r}"
            )
        if self.time_stepping == "adaptive" and waveform is not None:
            raise SamplingError(
                "adaptive time stepping supports the constant drive only "
                "(the step controller owns the time axis); drop the "
                "waveform or use fixed stepping"
            )
        self.adaptive_tolerance = float(adaptive_tolerance)
        self.quantize_dt = bool(quantize_dt)
        options = dict(adaptive_options) if adaptive_options else {}
        unknown = set(options) - set(self._ADAPTIVE_OPTIONS)
        if unknown:
            raise SamplingError(
                f"unknown adaptive_options {sorted(unknown)}; expected a "
                f"subset of {sorted(self._ADAPTIVE_OPTIONS)}"
            )
        # Starting two grid-steps up keeps the first-step doubling's
        # half step ON the fixed grid's dt, so the quantized ladder
        # visits one rung fewer on a cold cache.
        options.setdefault("initial_dt", 2.0 * self.time_grid.dt)
        options.setdefault("min_dt", 1.0e-3)
        options.setdefault("error_estimate", "predictor")
        self.adaptive_options = options
        #: The :class:`~repro.solvers.adaptive.AdaptiveStepResult` of the
        #: most recent adaptive solve (``None`` before the first one) --
        #: step/solve counts and solver reuse statistics for cost
        #: comparisons against the fixed grid.
        self.last_adaptive_result = None
        self._blocked_solver = None

    # ------------------------------------------------------------------
    # The model callable
    # ------------------------------------------------------------------
    def evaluate_traces(self, deltas):
        """Wire-temperature traces ``(P, W)`` for one elongation sample."""
        deltas = np.asarray(deltas, dtype=float).ravel()
        if deltas.size != self.num_wires:
            raise SamplingError(
                f"expected {self.num_wires} elongations, got {deltas.size}"
            )
        lengths = wire_lengths_from_deltas(deltas, self.mesh.layout)
        self.solver.set_wire_lengths(lengths)
        if self.time_stepping == "adaptive":
            traces = self._solve_adaptive_traces()
        else:
            result = self.solver.solve_transient(
                self.time_grid, waveform=self.waveform
            )
            traces = result.wire_temperatures
        self.evaluations += 1
        return traces

    def _solve_adaptive_traces(self):
        """One adaptive transient, interpolated onto the fixed grid.

        Integrates with controller-driven implicit Euler (the default
        predictor estimate costs one coupled solve per attempted step;
        step doubling three) and linearly interpolates the accepted
        wire temperatures onto the paper's 51-point axis, so downstream
        statistics see the exact same shapes as the fixed-grid path.
        Wire lengths must already be set on the solver.

        The coupled fixed point runs at ``max(tolerance,
        adaptive_tolerance / 100)`` inside the integration: iterating
        the nonlinear coupling to far below the local error the
        controller deliberately admits wastes iterations on noise the
        step controller cannot see.
        """
        from ..solvers.adaptive import adaptive_implicit_euler

        base_tolerance = self.solver.tolerance
        self.solver.tolerance = max(base_tolerance,
                                    0.01 * self.adaptive_tolerance)
        self.solver.begin_statistics_window()
        try:
            result = adaptive_implicit_euler(
                self.solver.step_once,
                self.problem.initial_temperatures(),
                end_time=self.parameters.end_time,
                tolerance=self.adaptive_tolerance,
                quantize_dt=self.quantize_dt,
                **self.adaptive_options,
            )
        finally:
            self.solver.tolerance = base_tolerance
        # ``solver_statistics()`` reports the statistics window opened
        # above, so this is exactly one integration's cost -- stable
        # across repeated evaluations and shared caches.
        result.solver_stats = self.solver.solver_statistics()
        self.last_adaptive_result = result
        wire_traces = np.stack([
            self.solver.topology.wire_temperatures(state)
            for state in result.states
        ])
        times = self.time_grid.times
        return np.column_stack([
            np.interp(times, result.times, wire_traces[:, wire])
            for wire in range(wire_traces.shape[1])
        ])

    def evaluate_end_max(self, deltas):
        """Scalar model for sensitivity studies: hottest end temperature."""
        return float(np.max(self.evaluate_traces(deltas)[-1]))

    # ------------------------------------------------------------------
    # Sample-blocked evaluation (the chunk fast path)
    # ------------------------------------------------------------------
    @property
    def supports_block_evaluation(self):
        """Whether :meth:`evaluate_traces_block` applies to this study.

        The blocked fast path needs the fast (Woodbury) solver mode,
        single-segment wires and fixed time stepping -- the adaptive
        controller gives every sample its own solution-dependent time
        axis, which cannot share one blocked grid.
        """
        return (
            self.time_stepping == "fixed"
            and self.solver.mode == "fast"
            and self.solver.topology.num_extra_nodes == 0
        )

    def evaluate_traces_block(self, deltas_block):
        """Wire-temperature traces ``(S, P, W)`` for a block of samples.

        The sample-blocked counterpart of :meth:`evaluate_traces`: all
        ``S`` elongation rows advance through the transient together via
        :class:`~repro.coupled.electrothermal.BlockedCoupledSolver`, so
        the per-step cost is batched linear algebra instead of ``S``
        Python-level solves.  Row ``s`` of the result matches
        ``evaluate_traces(deltas_block[s])`` within floating-point
        summation-order differences.
        """
        deltas_block = np.asarray(deltas_block, dtype=float)
        if deltas_block.ndim != 2 or deltas_block.shape[1] != self.num_wires:
            raise SamplingError(
                f"expected an (S, {self.num_wires}) elongation block, got "
                f"shape {deltas_block.shape}"
            )
        if not self.supports_block_evaluation:
            raise SamplingError(
                "blocked evaluation needs fast mode, single-segment wires "
                "and fixed time stepping; use evaluate_traces per sample"
            )
        lengths = np.stack([
            wire_lengths_from_deltas(row, self.mesh.layout)
            for row in deltas_block
        ])
        if self._blocked_solver is None:
            self._blocked_solver = BlockedCoupledSolver(self.solver)
        self._blocked_solver.set_wire_lengths_block(lengths)
        result = self._blocked_solver.solve_transient_block(
            self.time_grid, waveform=self.waveform
        )
        self.evaluations += deltas_block.shape[0]
        return result.wire_temperatures

    def block_model(self):
        """The campaign-facing model callable for this study.

        A :class:`~repro.uq.monte_carlo.BlockedModel` pairing
        :meth:`evaluate_traces` with :meth:`evaluate_traces_block` when
        the blocked fast path applies; the plain bound method otherwise
        (callers fall back to the per-sample loop).
        """
        if self.supports_block_evaluation:
            return BlockedModel(
                self.evaluate_traces, self.evaluate_traces_block
            )
        return self.evaluate_traces

    # ------------------------------------------------------------------
    # Studies
    # ------------------------------------------------------------------
    def run_monte_carlo(self, num_samples=None, seed=0, uniform_points=None,
                        keep_samples=False):
        """The paper's study; returns a :class:`Date16StudyResult`.

        Runs :meth:`block_model` through
        :meth:`~repro.uq.monte_carlo.MonteCarloStudy.run`: fixed-step,
        fast-mode, single-segment studies evaluate in sample blocks
        through :meth:`evaluate_traces_block`; adaptive, full-mode and
        multi-segment studies have no block evaluator and run one
        sample at a time.  Samples fold in sample order either way.
        """
        if num_samples is None:
            num_samples = self.parameters.num_mc_samples
        study = MonteCarloStudy(
            self.block_model(), self.elongation_distribution, self.num_wires,
        )
        mc = study.run(
            num_samples,
            seed=seed,
            uniform_points=uniform_points,
            keep_samples=keep_samples,
        )
        return Date16StudyResult(
            times=self.time_grid.times,
            mean=mc.mean,
            std=mc.std,
            num_samples=mc.num_samples,
            t_critical=self.parameters.t_critical,
            wire_names=self.problem.wire_names(),
            mc_result=mc,
        )

    def run_collocation(self, level=2):
        """Sparse-grid collocation alternative (2d+1 runs at level 2)."""
        collocation = StochasticCollocation(
            self.evaluate_traces,
            self.elongation_distribution,
            self.num_wires,
            level=level,
        )
        return collocation.run()

    def run_sensitivity(self, num_base_samples=64, seed=0):
        """Sobol indices of the hottest end temperature w.r.t. each wire."""
        return sobol_indices(
            self.evaluate_end_max,
            self.elongation_distribution,
            self.num_wires,
            num_base_samples=num_base_samples,
            seed=seed,
        )

    def run_pce(self, degree=1, num_samples=None, seed=0):
        """Polynomial chaos surrogate of the hottest end temperature.

        Degree 1 needs only ~2 (d + 1) = 26 model runs and already carries
        per-wire Sobol indices; use degree 2 (about 180 runs) when
        interactions matter.
        """
        from ..uq.pce import PolynomialChaosExpansion

        pce = PolynomialChaosExpansion(
            lambda deltas: np.array([self.evaluate_end_max(deltas)]),
            self.elongation_distribution,
            self.num_wires,
            degree=degree,
        )
        return pce.fit(num_samples=num_samples, seed=seed)

    def nominal_result(self, store_fields=False):
        """One solve at the nominal (mean-elongation) lengths."""
        deltas = np.full(self.num_wires, self.parameters.elongation_mean)
        lengths = wire_lengths_from_deltas(deltas, self.mesh.layout)
        self.solver.set_wire_lengths(lengths)
        return self.solver.solve_transient(
            self.time_grid, store_fields=store_fields, waveform=self.waveform
        )
