"""End-to-end assertions of the paper's qualitative claims.

These are the claims listed in DESIGN.md section 5, checked on a coarse
mesh with a reduced sample count so the whole module runs in well under a
minute.  Absolute temperatures differ from the paper (see EXPERIMENTS.md);
the *shape* claims asserted here are mesh- and sample-robust.
"""

import numpy as np
import pytest

from repro.package3d.chip_example import date16_layout
from repro.package3d.measurements import date16_xray_measurements
from repro.package3d.uq_study import Date16UncertaintyStudy


@pytest.fixture(scope="module")
def study():
    return Date16UncertaintyStudy(resolution="coarse", tolerance=1e-3)


@pytest.fixture(scope="module")
def result(study):
    return study.run_monte_carlo(num_samples=12, seed=42)


class TestClaim1SteadyState:
    def test_stationary_by_end_time(self, result):
        """'a stationary situation is observed after t ~ 50 s'."""
        mean, _ = result.hottest_wire_traces()
        # The last 10 % of the transient moves by under 2 % of the rise.
        rise = mean[-1] - mean[0]
        late_motion = np.max(np.abs(mean[-5:] - mean[-1]))
        assert late_motion < 0.02 * rise

    def test_most_of_the_rise_happens_early(self, result):
        """Time constant well under the 50 s window."""
        mean, _ = result.hottest_wire_traces()
        rise = mean[-1] - mean[0]
        halfway_index = int(np.argmax(mean - mean[0] >= 0.5 * rise))
        assert result.times[halfway_index] < 20.0


class TestClaim2MeanBelowCritical:
    def test_expected_temperature_below_523(self, result):
        """'the mean temperature of the hottest wire is still lower than
        the critical temperature'."""
        mean, _ = result.hottest_wire_traces()
        assert np.max(mean) < 523.0


class TestClaim4ErrorEstimator:
    def test_error_mc_is_sigma_over_sqrt_m(self, result):
        assert result.error_mc == pytest.approx(
            result.sigma_mc / np.sqrt(result.num_samples)
        )

    def test_sigma_positive_and_orders_of_magnitude_sane(self, result):
        """Length variability produces a nonzero spread, far below the
        mean rise (the paper: 4.65 K on a ~200 K rise)."""
        mean, _ = result.hottest_wire_traces()
        rise = mean[-1] - mean[0]
        assert 0.0 < result.sigma_mc < 0.25 * rise


class TestClaim5ShortWiresHottest:
    def test_hottest_wires_are_central_short_ones(self, result):
        """'the region where the contacts are closest and are connected by
        the shortest wires experience the largest temperature increase'."""
        directs = date16_layout().all_direct_distances()
        final_means = result.mean[-1]
        # Every short (central) wire runs hotter than every long one.
        short = final_means[directs < 1.2e-3]
        long_ = final_means[directs > 1.2e-3]
        assert short.min() > long_.max()

    def test_hot_spot_near_package_center(self, study):
        """Fig. 8: the spatial maximum sits in the chip/short-wire region."""
        nominal = study.nominal_result(store_fields=True)
        grid = study.mesh.grid
        temps = nominal.final_temperatures[: grid.num_nodes]
        hot_node = int(np.argmax(temps))
        coords = grid.node_coordinates()[hot_node]
        center = 0.5 * study.mesh.layout.body_x
        assert abs(coords[0] - center) < 1.5e-3
        assert abs(coords[1] - center) < 1.5e-3


class TestMeasurementChain:
    def test_dataset_to_distribution_to_lengths(self):
        """The full Fig. 4 -> Fig. 5 -> Table II chain is consistent."""
        dataset = date16_xray_measurements()
        fit = dataset.fit_elongation_distribution()
        assert fit.mu == pytest.approx(0.17, abs=1e-3)
        layout = date16_layout()
        lengths = layout.all_direct_distances() / (1.0 - fit.mu)
        assert np.mean(lengths) == pytest.approx(1.55e-3, rel=0.015)


class TestSolverCrossChecks:
    def test_fast_mode_used_by_study_matches_full_mode(self):
        """One nominal trace computed by both solver modes."""
        fast = Date16UncertaintyStudy(
            resolution="coarse", mode="fast", tolerance=1e-4
        )
        full = Date16UncertaintyStudy(
            resolution="coarse", mode="full", tolerance=1e-4
        )
        deltas = np.full(12, 0.17)
        trace_fast = fast.evaluate_traces(deltas)
        trace_full = full.evaluate_traces(deltas)
        # The frozen-field-material budget: 0.19 K of a 41 K rise on the
        # coarse mesh (DESIGN.md "The solver fast path").
        assert np.allclose(trace_fast, trace_full, atol=0.25)
