"""Tests for the end-to-end uncertainty study (small sample counts)."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.package3d.uq_study import Date16StudyResult, Date16UncertaintyStudy


@pytest.fixture(scope="module")
def study():
    """Module-scoped: the solver setup is reused by every test."""
    return Date16UncertaintyStudy(resolution="coarse", tolerance=1e-3)


@pytest.fixture(scope="module")
def mc_result(study):
    return study.run_monte_carlo(num_samples=8, seed=0)


class TestModelEvaluation:
    def test_trace_shape(self, study):
        traces = study.evaluate_traces(np.full(12, 0.17))
        assert traces.shape == (51, 12)
        assert np.allclose(traces[0], 300.0)

    def test_wrong_dimension(self, study):
        with pytest.raises(SamplingError):
            study.evaluate_traces(np.full(5, 0.17))

    def test_longer_wires_run_cooler(self, study):
        """Sensitivity direction: delta up -> L up -> R up -> less power."""
        hot = study.evaluate_traces(np.full(12, 0.05))
        cool = study.evaluate_traces(np.full(12, 0.35))
        assert np.max(hot[-1]) > np.max(cool[-1])

    def test_scalar_model(self, study):
        value = study.evaluate_end_max(np.full(12, 0.17))
        assert 320.0 < value < 420.0


class TestMonteCarloResult:
    def test_shapes(self, mc_result):
        assert mc_result.mean.shape == (51, 12)
        assert mc_result.std.shape == (51, 12)
        assert mc_result.num_samples == 8

    def test_emax_trace_monotone(self, mc_result):
        emax = mc_result.expectation_max_trace()
        assert emax[0] == pytest.approx(300.0)
        assert np.all(np.diff(emax) > -1e-6)

    def test_hottest_wire_is_a_short_one(self, mc_result):
        """Fig. 8 claim: the shortest (central) wires run hottest."""
        from repro.package3d.chip_example import date16_layout

        directs = date16_layout().all_direct_distances()
        shortest = set(np.nonzero(directs < 1.2e-3)[0])
        assert mc_result.hottest_wire_index in shortest

    def test_error_mc_consistent(self, mc_result):
        assert mc_result.error_mc == pytest.approx(
            mc_result.sigma_mc / np.sqrt(8.0)
        )

    def test_summary_keys(self, mc_result):
        summary = mc_result.summary()
        for key in (
            "hottest_wire", "num_samples", "E_end", "sigma_mc", "error_mc",
            "band_crossing_time", "steady_state_time", "t_critical",
        ):
            assert key in summary
        assert summary["t_critical"] == 523.0

    def test_band_crossing_with_low_threshold(self, mc_result):
        """With an artificially low threshold the band must cross."""
        lowered = Date16StudyResult(
            times=mc_result.times,
            mean=mc_result.mean,
            std=mc_result.std,
            num_samples=mc_result.num_samples,
            t_critical=320.0,
            wire_names=mc_result.wire_names,
        )
        crossing = lowered.band_crossing_time()
        assert crossing is not None
        assert 0.0 < crossing < 50.0

    def test_steady_state_reached_before_end(self, mc_result):
        """Fig. 7 claim: stationary situation after t ~ 50 s."""
        assert mc_result.steady_state_time(tolerance=0.02) <= 50.0


class TestNominalRun:
    def test_nominal_result(self, study):
        result = study.nominal_result()
        assert result.wire_temperatures.shape == (51, 12)
        assert result.final_wire_temperatures().max() > 320.0


class TestCollocationPath:
    def test_level1_single_run(self, study):
        result = study.run_collocation(level=1)
        assert result.num_evaluations == 1
        # The level-1 mean is the nominal trace.
        nominal = study.evaluate_traces(
            np.full(12, study.elongation_distribution.mean)
        )
        assert np.allclose(result.mean, nominal, atol=1e-6)


class TestAdaptiveTimeStepping:
    def test_adaptive_traces_match_fixed_grid(self, study):
        """The golden bound: quantized-adaptive traces, interpolated
        onto the 51-point grid, stay within adaptive_tolerance of the
        fixed-grid traces -- at roughly a third of the solve count."""
        adaptive = Date16UncertaintyStudy(
            resolution="coarse", tolerance=1e-3,
            time_stepping="adaptive", adaptive_tolerance=1.0,
        )
        deltas = np.full(12, 0.17)
        fixed_traces = study.evaluate_traces(deltas)
        adaptive_traces = adaptive.evaluate_traces(deltas)
        assert adaptive_traces.shape == fixed_traces.shape
        assert np.allclose(adaptive_traces[0], 300.0)
        # The controller takes (far) fewer solves than the fixed grid...
        result = adaptive.last_adaptive_result
        assert result is not None
        assert result.num_solves < 26  # fixed grid: 50 coupled solves
        assert result.times[-1] == pytest.approx(
            adaptive.parameters.end_time
        )
        # ...while staying within the local tolerance of the fixed solve.
        assert np.max(np.abs(adaptive_traces - fixed_traces)) < 1.0

    def test_quantization_bounds_factorizations(self):
        """Thermal factorizations stay at the ladder-rung count; the
        raw controller pays one per fresh dt."""
        adaptive = Date16UncertaintyStudy(
            resolution="coarse", tolerance=1e-3, time_stepping="adaptive",
        )
        adaptive.evaluate_traces(np.full(12, 0.17))
        result = adaptive.last_adaptive_result
        stats = result.statistics()
        assert stats["thermal_solver_builds"] == (
            result.num_distinct_solver_dts
        )
        assert stats["thermal_solver_builds"] <= 8  # a handful of rungs
        assert stats["num_solves"] == result.num_solves
        # A second evaluation reuses every per-dt solver, and the
        # attached statistics are that run's delta, not the solver's
        # lifetime totals.
        builds_before = adaptive.solver.thermal_solver_builds
        adaptive.evaluate_traces(np.full(12, 0.17))
        assert adaptive.solver.thermal_solver_builds == builds_before
        warm = adaptive.last_adaptive_result.statistics()
        assert warm["thermal_solver_builds"] == 0
        assert warm["coupled_steps"] == warm["num_solves"]

    def test_raw_adaptive_path_still_available(self):
        adaptive = Date16UncertaintyStudy(
            resolution="coarse", tolerance=1e-3, time_stepping="adaptive",
            quantize_dt=False,
            adaptive_options={"error_estimate": "doubling"},
        )
        traces = adaptive.evaluate_traces(np.full(12, 0.17))
        assert traces.shape == (51, 12)
        result = adaptive.last_adaptive_result
        assert result.num_solves == 3 * (result.accepted + result.rejected)

    def test_unknown_adaptive_option_rejected(self):
        with pytest.raises(SamplingError, match="adaptive_options"):
            Date16UncertaintyStudy(
                resolution="coarse", time_stepping="adaptive",
                adaptive_options={"typo_dt": 1.0},
            )

    def test_invalid_time_stepping_rejected(self):
        with pytest.raises(SamplingError):
            Date16UncertaintyStudy(resolution="coarse",
                                   time_stepping="magic")

    def test_adaptive_refuses_waveform(self):
        from repro.coupled.excitation import StepWaveform

        with pytest.raises(SamplingError):
            Date16UncertaintyStudy(
                resolution="coarse", time_stepping="adaptive",
                waveform=StepWaveform(t_on=1.0, t_off=20.0),
            )

    def test_campaign_scenario_option(self):
        """The ROADMAP item: 'time_stepping': 'adaptive' flows from the
        spec through the registry builder into the study."""
        from repro.campaign.registry import get_problem
        from repro.package3d.scenarios import date16_campaign_spec

        spec = date16_campaign_spec(
            num_samples=2, chunk_size=2, time_stepping="adaptive",
        )
        assert spec.scenario.options["time_stepping"] == "adaptive"
        model = get_problem("date16")(spec.scenario)
        traces = model(np.full(12, 0.17))
        assert traces.shape == (51, 12)

    def test_quantize_and_adaptive_options_thread_through_spec(self):
        """The new options block round-trips through ScenarioSpec JSON
        into the worker-side study."""
        import json

        from repro.campaign.registry import get_problem
        from repro.campaign.spec import CampaignSpec
        from repro.package3d.scenarios import date16_campaign_spec

        spec = date16_campaign_spec(
            num_samples=2, chunk_size=2, time_stepping="adaptive",
            adaptive_tolerance=0.75, quantize_dt=False,
            adaptive_options={"min_dt": 0.25,
                              "error_estimate": "doubling"},
        )
        rebuilt = CampaignSpec.from_json(spec.to_json())
        options = rebuilt.scenario.options
        assert options["quantize_dt"] is False
        assert options["adaptive_tolerance"] == 0.75
        assert options["adaptive_options"]["min_dt"] == 0.25
        assert json.loads(spec.to_json()) == json.loads(rebuilt.to_json())
        model = get_problem("date16")(rebuilt.scenario)
        study = model.__self__
        assert study.quantize_dt is False
        assert study.adaptive_tolerance == 0.75
        assert study.adaptive_options["min_dt"] == 0.25
        assert study.adaptive_options["error_estimate"] == "doubling"


class TestPcePath:
    def test_degree1_surrogate(self, study):
        pce = study.run_pce(degree=1, seed=0)
        # Mean within a kelvin of a direct nominal evaluation.
        nominal = study.evaluate_end_max(np.full(12, 0.17))
        assert pce.mean[0] == pytest.approx(nominal, abs=1.5)
        first, total = pce.sobol_indices()
        # Degree 1 = additive surrogate: first order equals total...
        assert np.allclose(first, total, atol=1e-9)
        # ...indices sum to ~1 and the short wires dominate.
        assert np.sum(first[:, 0]) == pytest.approx(1.0, abs=1e-6)
        from repro.package3d.chip_example import date16_layout

        directs = date16_layout().all_direct_distances()
        short = first[directs < 1.2e-3, 0]
        long_ = first[directs > 1.2e-3, 0]
        assert short.min() > long_.max()


class TestBlockedEvaluation:
    """The sample-blocked fast path of the study (tiny mesh/grid)."""

    @pytest.fixture(scope="class")
    def tiny_study(self):
        from repro.package3d.chip_example import Date16Parameters

        return Date16UncertaintyStudy(
            parameters=Date16Parameters(end_time=10.0, num_time_points=6),
            resolution=(0.9e-3, 0.4e-3),
            tolerance=1e-3,
        )

    def test_supports_block_evaluation(self, tiny_study):
        assert tiny_study.supports_block_evaluation

    def test_adaptive_does_not_support_blocks(self):
        adaptive = Date16UncertaintyStudy(
            resolution="coarse", tolerance=1e-3, time_stepping="adaptive"
        )
        assert not adaptive.supports_block_evaluation
        with pytest.raises(SamplingError, match="block"):
            adaptive.evaluate_traces_block(np.full((2, 12), 0.17))
        # The model factory degrades to the plain per-sample callable.
        model = adaptive.block_model()
        assert getattr(model, "evaluate_block", None) is None

    def test_block_matches_per_sample_loop(self, tiny_study):
        rng = np.random.default_rng(11)
        deltas = rng.uniform(0.05, 0.4, size=(3, 12))
        blocked = tiny_study.evaluate_traces_block(deltas)
        loop = np.stack(
            [tiny_study.evaluate_traces(row) for row in deltas]
        )
        assert blocked.shape == loop.shape
        assert np.array_equal(blocked, loop)

    def test_block_shape_validation(self, tiny_study):
        with pytest.raises(SamplingError):
            tiny_study.evaluate_traces_block(np.full(12, 0.17))
        with pytest.raises(SamplingError):
            tiny_study.evaluate_traces_block(np.full((2, 5), 0.17))

    def test_block_counts_evaluations(self, tiny_study):
        before = tiny_study.evaluations
        tiny_study.evaluate_traces_block(np.full((2, 12), 0.17))
        assert tiny_study.evaluations - before == 2

    def test_block_model_exposes_study(self, tiny_study):
        model = tiny_study.block_model()
        assert callable(model.evaluate_block)
        assert model.__self__ is tiny_study

    def test_run_monte_carlo_matches_per_sample_rows(self, tiny_study):
        """M = 11 leaves an uneven last block of the blocked study."""
        result = tiny_study.run_monte_carlo(num_samples=11, seed=3)
        rows = np.stack([
            tiny_study.evaluate_traces(deltas)
            for deltas in result.mc_result.parameters
        ])
        assert result.num_samples == 11
        assert np.max(np.abs(result.mean - np.mean(rows, axis=0))) < 1e-12
        assert np.max(
            np.abs(result.std - np.std(rows, axis=0, ddof=1))
        ) < 1e-12

    @pytest.mark.parametrize(
        "options", [{"num_segments": 3}, {"time_stepping": "adaptive"}],
        ids=["three-segment", "adaptive"],
    )
    def test_run_monte_carlo_without_block_evaluator(self, options):
        from repro.package3d.chip_example import Date16Parameters

        study = Date16UncertaintyStudy(
            parameters=Date16Parameters(end_time=10.0, num_time_points=6),
            resolution=(0.9e-3, 0.4e-3),
            tolerance=1e-3,
            **options,
        )
        assert not hasattr(study.block_model(), "evaluate_block")
        result = study.run_monte_carlo(num_samples=2, seed=0)
        assert result.mean.shape == (6, 12)
        assert np.all(np.isfinite(result.std))
        assert study.evaluations == 2
