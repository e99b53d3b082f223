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
    """

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
        result = self.solver.solve_transient(
            self.time_grid, waveform=self.waveform
        )
        self.evaluations += 1
        return result.wire_temperatures

    def evaluate_end_max(self, deltas):
        """Scalar model for sensitivity studies: hottest end temperature."""
        return float(np.max(self.evaluate_traces(deltas)[-1]))

    # ------------------------------------------------------------------
    # Sample-blocked evaluation (the chunk fast path)
    # ------------------------------------------------------------------
    @property
    def supports_block_evaluation(self):
        """Whether :meth:`evaluate_traces_block` applies to this study.

        The blocked fast path needs the fast (Woodbury) solver mode and
        single-segment wires.
        """
        return (
            self.solver.mode == "fast"
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
                "blocked evaluation needs fast mode and single-segment "
                "wires; use evaluate_traces per sample"
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
        (full mode or multi-segment wires: callers fall back to the
        per-sample loop).
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
        :meth:`~repro.uq.monte_carlo.MonteCarloStudy.run`: fast-mode,
        single-segment studies evaluate in sample blocks through
        :meth:`evaluate_traces_block`; full-mode and multi-segment
        studies have no block evaluator and run one sample at a time.
        Samples fold in sample order either way.
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
