"""Analytic golden tests: Jansen estimates vs closed-form Sobol indices.

The Ishigami function and the Sobol g-function have exact Sobol indices
of every order, so these tests pin the estimator core -- first-order,
total, closed second-order, interaction and grouped indices, for scalar
and vector quantities of interest -- against ground truth instead of
against itself.  Point estimates must land within a sampling tolerance
AND the seeded bootstrap confidence intervals must bracket the truth;
the ``slow``-marked convergence tests tighten the tolerance with the
sample count for the nightly run.
"""

import numpy as np
import pytest

from repro.campaign import ScenarioSpec, SensitivitySpec, run_campaign
from repro.uq.analytic import (
    ishigami,
    ishigami_distribution,
    ishigami_indices,
    sobol_g,
    sobol_g_indices,
)
from repro.uq.sampling import random_sampler
from repro.uq.sensitivity import (
    all_pairs,
    jansen_bootstrap,
    jansen_group_indices,
    jansen_indices,
    jansen_second_order,
)

# Zero-variance handling must stay warning-free: any escaped division
# warning fails these tests.
pytestmark = pytest.mark.filterwarnings("error")

_G_COEFFICIENTS = np.array([0.0, 0.5, 3.0, 9.0])


def _saltelli_blocks(function, num_base_samples, dimension, seed,
                     lower, upper, pairs=None, groups=None):
    """Evaluate ``function`` on the full extended Saltelli design."""
    stream = random_sampler(2 * num_base_samples, dimension, seed)
    scale = upper - lower
    a_unit = stream[:num_base_samples]
    b_unit = stream[num_base_samples:]

    def evaluate(unit):
        return np.asarray(function(lower + scale * unit), dtype=float)

    def hybrid(columns):
        block = a_unit.copy()
        block[:, list(columns)] = b_unit[:, list(columns)]
        return evaluate(block)

    f_a = evaluate(a_unit)
    f_b = evaluate(b_unit)
    f_ab = np.stack([hybrid((i,)) for i in range(dimension)])
    f_ab_pairs = None
    if pairs is not None:
        f_ab_pairs = np.stack([hybrid(pair) for pair in pairs])
    f_ab_groups = None
    if groups is not None:
        f_ab_groups = np.stack([hybrid(group) for group in groups])
    return f_a, f_b, f_ab, f_ab_pairs, f_ab_groups


def _assert_within_interval(truth, lower, upper, label):
    assert lower <= truth <= upper, (
        f"{label}: closed form {truth:.4f} outside bootstrap CI "
        f"[{lower:.4f}, {upper:.4f}]"
    )


class TestIshigamiClosedForm:
    def test_decomposition_sums_to_one(self):
        truth = ishigami_indices()
        total_mass = (
            float(np.sum(truth["first_order"]))
            + sum(truth["second_order"].values())
        )
        assert total_mass == pytest.approx(1.0)

    def test_total_equals_first_plus_interactions(self):
        truth = ishigami_indices()
        assert truth["total"][0] == pytest.approx(
            truth["first_order"][0] + truth["second_order"][(0, 2)]
        )
        assert truth["total"][1] == pytest.approx(truth["first_order"][1])

    def test_group_helpers_consistent(self):
        truth = ishigami_indices()
        # The full set explains everything.
        assert truth["group_closed"]((0, 1, 2)) == pytest.approx(1.0)
        assert truth["group_total"]((0, 1, 2)) == pytest.approx(1.0)
        # x2 is additive: closed == total for {x1, x2}'s complement.
        assert truth["group_total"]((1,)) == pytest.approx(
            truth["first_order"][1]
        )


class TestSobolGClosedForm:
    def test_decomposition_bounds(self):
        truth = sobol_g_indices(_G_COEFFICIENTS)
        assert float(np.sum(truth["first_order"])) < 1.0
        assert np.all(truth["total"] >= truth["first_order"])
        # Interactions are products: the strongest pair is (0, 1).
        strongest = max(truth["second_order"],
                        key=truth["second_order"].get)
        assert strongest == (0, 1)

    def test_group_closed_matches_pair_closed(self):
        truth = sobol_g_indices(_G_COEFFICIENTS)
        assert truth["group_closed"]((0, 1)) == pytest.approx(
            truth["closed_second_order"][(0, 1)]
        )


class TestIshigamiGolden:
    M = 2048
    SEED = 0

    @pytest.fixture(scope="class")
    def blocks(self):
        return _saltelli_blocks(
            ishigami, self.M, 3, self.SEED, -np.pi, np.pi,
            pairs=all_pairs(3), groups=[(0, 2), (1,)],
        )

    @pytest.fixture(scope="class")
    def truth(self):
        return ishigami_indices()

    def test_first_and_total_near_closed_form(self, blocks, truth):
        f_a, f_b, f_ab, _, _ = blocks
        indices = jansen_indices(f_a, f_b, f_ab)
        assert np.allclose(indices.first_order, truth["first_order"],
                           atol=0.05)
        assert np.allclose(indices.total, truth["total"], atol=0.05)

    def test_second_order_near_closed_form(self, blocks, truth):
        f_a, f_b, f_ab, f_ab_pairs, _ = blocks
        second = jansen_second_order(f_a, f_b, f_ab, f_ab_pairs)
        assert second.pairs == all_pairs(3)
        for position, pair in enumerate(second.pairs):
            assert second.closed[position] == pytest.approx(
                truth["closed_second_order"][pair], abs=0.05
            )
            assert second.interaction[position] == pytest.approx(
                truth["second_order"][pair], abs=0.05
            )

    def test_group_indices_near_closed_form(self, blocks, truth):
        f_a, f_b, _, _, f_ab_groups = blocks
        groups = [(0, 2), (1,)]
        result = jansen_group_indices(f_a, f_b, f_ab_groups, groups,
                                      dimension=3)
        for position, group in enumerate(groups):
            assert result.closed[position] == pytest.approx(
                truth["group_closed"](group), abs=0.05
            )
            assert result.total[position] == pytest.approx(
                truth["group_total"](group), abs=0.05
            )

    def test_bootstrap_interval_brackets_truth(self, blocks, truth):
        """First-, second- and total-order closed forms all land inside
        the seeded 95% bootstrap CIs."""
        f_a, f_b, f_ab, f_ab_pairs, f_ab_groups = blocks
        interval = jansen_bootstrap(
            f_a, f_b, f_ab, num_replicates=200, seed=self.SEED,
            f_ab_pairs=f_ab_pairs, f_ab_groups=f_ab_groups,
            groups=[(0, 2), (1,)],
        )
        for i in range(3):
            _assert_within_interval(
                truth["first_order"][i], interval.first_order_lower[i],
                interval.first_order_upper[i], f"S_{i}",
            )
            _assert_within_interval(
                truth["total"][i], interval.total_lower[i],
                interval.total_upper[i], f"ST_{i}",
            )
        for position, pair in enumerate(all_pairs(3)):
            _assert_within_interval(
                truth["second_order"][pair],
                interval.second_order_lower[position],
                interval.second_order_upper[position],
                f"S_{pair}",
            )
            _assert_within_interval(
                truth["closed_second_order"][pair],
                interval.closed_second_order_lower[position],
                interval.closed_second_order_upper[position],
                f"S^c_{pair}",
            )
        for position, group in enumerate([(0, 2), (1,)]):
            _assert_within_interval(
                truth["group_total"](group),
                interval.group_total_lower[position],
                interval.group_total_upper[position],
                f"ST_{group}",
            )


class TestSobolGGolden:
    M = 4096
    SEED = 3

    @pytest.fixture(scope="class")
    def blocks(self):
        return _saltelli_blocks(
            lambda x: sobol_g(x, _G_COEFFICIENTS), self.M, 4, self.SEED,
            0.0, 1.0, pairs=all_pairs(4),
        )

    @pytest.fixture(scope="class")
    def truth(self):
        return sobol_g_indices(_G_COEFFICIENTS)

    def test_first_and_total_near_closed_form(self, blocks, truth):
        f_a, f_b, f_ab, _, _ = blocks
        indices = jansen_indices(f_a, f_b, f_ab)
        assert np.allclose(indices.first_order, truth["first_order"],
                           atol=0.05)
        assert np.allclose(indices.total, truth["total"], atol=0.05)

    def test_second_order_near_closed_form(self, blocks, truth):
        f_a, f_b, f_ab, f_ab_pairs, _ = blocks
        second = jansen_second_order(f_a, f_b, f_ab, f_ab_pairs)
        for position, pair in enumerate(second.pairs):
            assert second.closed[position] == pytest.approx(
                truth["closed_second_order"][pair], abs=0.05
            )
            assert second.interaction[position] == pytest.approx(
                truth["second_order"][pair], abs=0.05
            )
        # The ranking finds the dominant interaction.
        assert second.ranking()[0] == second.pairs.index((0, 1))


class TestVectorQoIGolden:
    """Vector outputs reduce per component, including the degenerate
    zero-variance (NaN) contract -- with no escaped warnings."""

    M = 512
    SEED = 7

    @pytest.fixture(scope="class")
    def scalar_and_vector(self):
        weights = np.array([1.0, 2.0, 0.0])

        def vector_model(x):
            return ishigami(x)[..., np.newaxis] * weights

        scalar = _saltelli_blocks(
            ishigami, self.M, 3, self.SEED, -np.pi, np.pi,
            pairs=all_pairs(3),
        )
        vector = _saltelli_blocks(
            vector_model, self.M, 3, self.SEED, -np.pi, np.pi,
            pairs=all_pairs(3),
        )
        return scalar, vector

    def test_weighted_components_match_scalar_bitwise(
            self, scalar_and_vector):
        """Weight 1 is exact and weight 2 a power of two: both
        components must reproduce the scalar reduction bit for bit."""
        scalar, vector = scalar_and_vector
        s = jansen_second_order(scalar[0], scalar[1], scalar[2], scalar[3])
        v = jansen_second_order(vector[0], vector[1], vector[2], vector[3])
        for component in (0, 1):
            assert np.array_equal(v.closed[:, component], s.closed)
            assert np.array_equal(v.interaction[:, component],
                                  s.interaction)
            assert np.array_equal(v.total[:, component], s.total)

    def test_zero_weight_component_reports_nan(self, scalar_and_vector):
        _, vector = scalar_and_vector
        second = jansen_second_order(vector[0], vector[1], vector[2],
                                     vector[3])
        assert np.all(np.isnan(second.closed[:, 2]))
        assert np.all(np.isnan(second.interaction[:, 2]))
        assert np.all(np.isnan(second.total[:, 2]))
        assert np.asarray(second.variance)[2] == 0.0

    def test_zero_weight_component_bootstrap_nan(self, scalar_and_vector):
        _, vector = scalar_and_vector
        interval = jansen_bootstrap(
            vector[0], vector[1], vector[2], num_replicates=25,
            seed=self.SEED, f_ab_pairs=vector[3],
        )
        assert np.all(np.isnan(interval.second_order_lower[:, 2]))
        assert np.all(np.isnan(interval.closed_second_order_upper[:, 2]))
        assert np.all(np.isfinite(interval.second_order_lower[:, 0]))


class TestCampaignAcceptance:
    """The PR acceptance criterion: a second-order campaign on the
    Ishigami fixture recovers every closed-form S_ij within the seeded
    bootstrap 95% CI."""

    def _spec(self, **overrides):
        settings = dict(
            name="ishigami-acceptance",
            scenario=ScenarioSpec(problem="ishigami",
                                  module="repro.uq.analytic"),
            distribution=ishigami_distribution(),
            dimension=3,
            num_base_samples=1024,
            seed=2,
            chunk_size=640,
            sampler="random",
            second_order=True,
            num_bootstrap=100,
        )
        settings.update(overrides)
        return SensitivitySpec(**settings)

    def test_second_order_campaign_recovers_closed_form(self):
        result = run_campaign(self._spec(), reducer="jansen")
        truth = ishigami_indices()
        summary = result.summary()
        for position, pair in enumerate(result.second_order.pairs):
            _assert_within_interval(
                truth["second_order"][pair],
                summary["second_order_lower"][position],
                summary["second_order_upper"][position],
                f"S_{pair}",
            )
            assert result.second_order.interaction[position] == (
                pytest.approx(truth["second_order"][pair], abs=0.07)
            )
        for i in range(3):
            _assert_within_interval(
                truth["first_order"][i],
                summary["first_order_lower"][i],
                summary["first_order_upper"][i],
                f"S_{i}",
            )

    def test_vector_campaign_recovers_closed_form(self):
        """The same acceptance with a vector QoI: every finite component
        carries the same closed forms."""
        spec = self._spec(
            name="ishigami-acceptance-vector",
            scenario=ScenarioSpec(
                problem="ishigami",
                options={"weights": [1.0, 2.0]},
                module="repro.uq.analytic",
            ),
            num_base_samples=512,
            num_bootstrap=0,
        )
        result = run_campaign(spec, reducer="jansen")
        truth = ishigami_indices()
        for component in (0, 1):
            assert np.allclose(
                result.first_order[:, component], truth["first_order"],
                atol=0.08,
            )
            for position, pair in enumerate(result.second_order.pairs):
                assert result.second_order.interaction[
                    position, component
                ] == pytest.approx(truth["second_order"][pair], abs=0.08)


@pytest.mark.slow
class TestConvergenceNightly:
    """Error shrinks with M and the largest run is tight (nightly)."""

    def test_ishigami_second_order_convergence(self):
        truth = ishigami_indices()
        errors = []
        for m in (512, 4096, 32768):
            f_a, f_b, f_ab, f_ab_pairs, _ = _saltelli_blocks(
                ishigami, m, 3, 19, -np.pi, np.pi, pairs=all_pairs(3)
            )
            second = jansen_second_order(f_a, f_b, f_ab, f_ab_pairs)
            first = jansen_indices(f_a, f_b, f_ab)
            error = max(
                float(np.max(np.abs(
                    first.first_order - truth["first_order"]
                ))),
                float(np.max(np.abs(first.total - truth["total"]))),
                max(abs(second.interaction[p] - truth["second_order"][pair])
                    for p, pair in enumerate(second.pairs)),
            )
            errors.append(error)
        assert errors[-1] < errors[0]
        assert errors[-1] < 0.02

    def test_sobol_g_group_convergence(self):
        truth = sobol_g_indices(_G_COEFFICIENTS)
        groups = [(0, 1), (2, 3)]
        errors = []
        for m in (512, 4096, 32768):
            f_a, f_b, _, _, f_ab_groups = _saltelli_blocks(
                lambda x: sobol_g(x, _G_COEFFICIENTS), m, 4, 23,
                0.0, 1.0, groups=groups,
            )
            result = jansen_group_indices(f_a, f_b, f_ab_groups, groups,
                                          dimension=4)
            error = max(
                max(abs(result.closed[p] - truth["group_closed"](group))
                    for p, group in enumerate(groups)),
                max(abs(result.total[p] - truth["group_total"](group))
                    for p, group in enumerate(groups)),
            )
            errors.append(error)
        assert errors[-1] < errors[0]
        assert errors[-1] < 0.02
