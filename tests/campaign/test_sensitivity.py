"""Tests for the distributed Sobol sensitivity campaign subsystem."""

import numpy as np
import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignSpec,
    JansenReducer,
    ParallelExecutor,
    SaltelliPlan,
    SensitivityResult,
    SensitivitySpec,
    SerialExecutor,
    resume_campaign,
    run_campaign,
)
from repro.campaign.executor import evaluate_chunk, resolve_model
from repro.campaign.runner import (
    campaign_chunks,
    campaign_parameters,
    unit_sample,
)
from repro.errors import CampaignError
from repro.uq.sensitivity import saltelli_sample, sobol_indices

from .conftest import make_toy_sensitivity_spec


class TestSaltelliPlan:
    def test_layout(self):
        plan = SaltelliPlan(8, 3)
        assert plan.num_blocks == 5
        assert plan.num_evaluations == 40
        assert plan.block_of(0) == 0
        assert plan.block_of(8) == 1
        assert plan.block_of(16) == 2
        assert plan.row_of(17) == 1
        assert list(plan.block_range(1)) == list(range(8, 16))
        assert plan.block_label(0) == "A"
        assert plan.block_label(1) == "B"
        assert plan.block_label(4) == "AB_2"

    def test_every_index_covered_once(self):
        plan = SaltelliPlan(4, 2)
        covered = [g for block in range(plan.num_blocks)
                   for g in plan.block_range(block)]
        assert sorted(covered) == list(range(plan.num_evaluations))

    def test_compose_matches_saltelli_sample_bitwise(self):
        """The plan reproduces the in-process design from the same stream."""
        m, d = 8, 3
        a, b, ab = saltelli_sample(m, d, seed=11)
        base = np.concatenate([a, b])
        plan = SaltelliPlan(m, d)
        assert np.array_equal(
            plan.compose(base, plan.block_range(0)), a
        )
        assert np.array_equal(
            plan.compose(base, plan.block_range(1)), b
        )
        for i in range(d):
            assert np.array_equal(
                plan.compose(base, plan.block_range(2 + i)), ab[i]
            )

    def test_compose_any_index_order_bitwise(self):
        """Indices from every block, shuffled, give the rows a per-row
        composition gives: ``A`` rows with the block's columns from
        ``B``."""
        m, d = 5, 4
        plan = SaltelliPlan(m, d, second_order=True, groups=[[0, 2]])
        base = np.random.default_rng(2).random((2 * m, d))
        indices = np.random.default_rng(3).permutation(
            plan.num_evaluations)[:23]
        expected = np.empty((indices.size, d))
        for out, index in enumerate(indices):
            block, row = divmod(int(index), m)
            expected[out] = base[m + row] if block == 1 else base[row]
            columns = list(plan.swap_columns(block))
            if block >= 2:
                expected[out, columns] = base[m + row, columns]
        assert plan.compose(base, indices).tobytes() == expected.tobytes()
        assert plan.compose(base, []).shape == (0, d)

    def test_compose_names_the_first_out_of_range_index(self):
        plan = SaltelliPlan(4, 2)
        base = np.zeros((8, 2))
        with pytest.raises(CampaignError, match="index 99 out of range"):
            plan.compose(base, [0, 99, -1])
        with pytest.raises(CampaignError, match="index -1 out of range"):
            plan.compose(base, [3, -1, 99])

    def test_roundtrip_dict(self):
        plan = SaltelliPlan(16, 5)
        assert SaltelliPlan.from_dict(plan.to_dict()).to_dict() == \
            plan.to_dict()

    def test_validation(self):
        with pytest.raises(CampaignError):
            SaltelliPlan(1, 3)
        with pytest.raises(CampaignError):
            SaltelliPlan(4, 0)
        plan = SaltelliPlan(4, 2)
        with pytest.raises(CampaignError):
            plan.block_of(plan.num_evaluations)
        with pytest.raises(CampaignError):
            plan.block_range(plan.num_blocks)
        with pytest.raises(CampaignError):
            plan.compose(np.zeros((3, 2)), [0])


class TestSensitivitySpec:
    def test_derived_evaluation_budget(self, toy_sensitivity_spec):
        spec = toy_sensitivity_spec
        assert spec.num_samples == spec.num_base_samples * (spec.dimension + 2)
        assert spec.kind == "sensitivity"

    def test_json_roundtrip_dispatches_to_sensitivity(
            self, toy_sensitivity_spec):
        """The generic loader reconstructs the sensitivity subclass."""
        loaded = CampaignSpec.from_json(toy_sensitivity_spec.to_json())
        assert isinstance(loaded, SensitivitySpec)
        assert loaded.to_dict() == toy_sensitivity_spec.to_dict()

    def test_unknown_kind_rejected(self, toy_sensitivity_spec):
        data = toy_sensitivity_spec.to_dict()
        data["kind"] = "mystery"
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict(data)

    def test_missing_base_samples_rejected(self, toy_sensitivity_spec):
        data = toy_sensitivity_spec.to_dict()
        del data["num_base_samples"]
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict(data)

    def test_unit_points_partition_independent(self, toy_sensitivity_spec):
        full = campaign_parameters(toy_sensitivity_spec)
        subset = campaign_parameters(toy_sensitivity_spec, [0, 19, 95])
        assert np.array_equal(subset, full[[0, 19, 95]])

    def test_bootstrap_settings_persist_through_resume(self, tmp_path):
        """CIs are part of the pinned spec: a flag-less resume reproduces
        the original run's replicate count and bounds exactly."""
        base = make_toy_sensitivity_spec().to_dict()
        custom = SensitivitySpec.from_dict(
            {**base, "num_bootstrap": 37, "confidence": 0.9}
        )
        assert custom.to_dict()["num_bootstrap"] == 37
        store = ArtifactStore(tmp_path / "store")
        result = run_campaign(custom, store=store)
        assert result.interval.num_replicates == 37
        assert result.interval.confidence == 0.9
        resumed = resume_campaign(store)
        assert resumed.interval.num_replicates == 37
        assert np.array_equal(result.interval.total_lower,
                              resumed.interval.total_lower)
        assert np.array_equal(result.interval.first_order_upper,
                              resumed.interval.first_order_upper)

    def test_invalid_bootstrap_settings_rejected(self):
        base = make_toy_sensitivity_spec().to_dict()
        with pytest.raises(CampaignError):
            SensitivitySpec.from_dict({**base, "num_bootstrap": -1})
        with pytest.raises(CampaignError):
            SensitivitySpec.from_dict({**base, "confidence": 1.5})

    def test_counter_sampler_rows_are_unit_samples(self):
        """Counter base row ``r`` of ``A`` / ``B`` is sample ``r`` /
        ``M + r`` of the per-sample stream."""
        spec = make_toy_sensitivity_spec(sampler="counter")
        m, d = spec.num_base_samples, spec.dimension
        rows = spec.unit_points([m + 3, 3, 2 * m + 3])
        a3 = unit_sample(spec.seed, 3, d)
        b3 = unit_sample(spec.seed, m + 3, d)
        assert np.array_equal(rows[0], b3)
        assert np.array_equal(rows[1], a3)
        assert np.array_equal(rows[2], np.concatenate([b3[:1], a3[1:]]))

    def test_counter_sampler_supported(self):
        spec = make_toy_sensitivity_spec(sampler="counter")
        full = campaign_parameters(spec)
        subset = campaign_parameters(spec, [5, 40])
        assert np.array_equal(subset, full[[5, 40]])
        # AB block rows equal the A row except in the swapped column.
        m, d = spec.num_base_samples, spec.dimension
        a = full[:m]
        b = full[m:2 * m]
        for i in range(d):
            block = full[(2 + i) * m:(3 + i) * m]
            assert np.array_equal(block[:, i], b[:, i])
            mask = np.arange(d) != i
            assert np.array_equal(block[:, mask], a[:, mask])


class TestEquivalenceWithInProcess:
    """The acceptance property: campaign == in-process, bit for bit."""

    def test_serial_campaign_matches_sobol_indices(
            self, toy_sensitivity_spec):
        spec = toy_sensitivity_spec
        model = resolve_model(spec.scenario)
        legacy = sobol_indices(
            model, spec.build_distribution(), spec.dimension,
            num_base_samples=spec.num_base_samples, seed=spec.seed,
        )
        result = run_campaign(spec, executor=SerialExecutor())
        assert np.array_equal(result.first_order, legacy.first_order)
        assert np.array_equal(result.total, legacy.total)
        assert result.variance == legacy.variance
        assert result.indices.num_evaluations == legacy.num_evaluations

    def test_four_worker_campaign_matches_sobol_indices(
            self, toy_sensitivity_spec):
        spec = toy_sensitivity_spec
        model = resolve_model(spec.scenario)
        legacy = sobol_indices(
            model, spec.build_distribution(), spec.dimension,
            num_base_samples=spec.num_base_samples, seed=spec.seed,
        )
        result = run_campaign(
            spec, executor=ParallelExecutor(num_workers=4)
        )
        assert np.array_equal(result.first_order, legacy.first_order)
        assert np.array_equal(result.total, legacy.total)

    def test_kill_resume_reproduces_uninterrupted(self, toy_sensitivity_spec,
                                                  tmp_path):
        spec = toy_sensitivity_spec
        uninterrupted = run_campaign(spec)

        # Simulate a killed run: only some chunks were checkpointed.
        store = ArtifactStore(tmp_path / "store").initialize(spec)
        model = resolve_model(spec.scenario)
        for chunk in campaign_chunks(spec, [0, 3, 5]):
            store.write_chunk(evaluate_chunk(model, chunk))

        resumed = resume_campaign(
            store, executor=ParallelExecutor(num_workers=2)
        )
        assert resumed.num_evaluated < spec.num_samples
        assert np.array_equal(resumed.first_order,
                              uninterrupted.first_order)
        assert np.array_equal(resumed.total, uninterrupted.total)
        assert np.array_equal(resumed.parameters, uninterrupted.parameters)
        # The seeded bootstrap intervals reproduce too.
        for name in ("first_order_lower", "first_order_upper",
                     "total_lower", "total_upper"):
            assert np.array_equal(
                getattr(resumed.interval, name),
                getattr(uninterrupted.interval, name),
            )

    def test_completed_store_re_reduces_without_evaluation(
            self, toy_sensitivity_spec, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = run_campaign(toy_sensitivity_spec, store=store)
        again = resume_campaign(store)
        assert again.num_evaluated == 0
        assert np.array_equal(first.first_order, again.first_order)
        assert store.read_summary() == first.summary()


class TestVectorQoI:
    def test_vector_indices_per_component(self):
        """Identity QoI: 3 output components, each reduced independently."""
        spec = make_toy_sensitivity_spec(qoi="identity")
        result = run_campaign(
            spec, reducer=JansenReducer(spec, num_bootstrap=10)
        )
        d = spec.dimension
        assert result.first_order.shape == (d, 3)
        assert result.total.shape == (d, 3)
        assert np.asarray(result.variance).shape == (3,)
        assert result.interval.total_lower.shape == (d, 3)
        # Component 0 is the same scalar the "test-scalar-sum" QoI yields.
        scalar_spec = make_toy_sensitivity_spec(qoi="test-scalar-sum")
        scalar = run_campaign(
            scalar_spec, reducer=JansenReducer(scalar_spec, num_bootstrap=0)
        )
        assert np.array_equal(result.first_order[:, 0],
                              scalar.first_order)
        assert np.array_equal(result.total[:, 0], scalar.total)

    def test_summary_reports_max_variance_component(self):
        spec = make_toy_sensitivity_spec(qoi="identity")
        result = run_campaign(
            spec, reducer=JansenReducer(spec, num_bootstrap=0)
        )
        summary = result.summary()
        variance = np.asarray(result.variance)
        assert summary["argmax_output"] == int(np.argmax(variance))
        assert summary["output_size"] == 3
        assert len(summary["first_order"]) == spec.dimension
        assert summary["ranking"][0] == int(
            np.argmax(result.total[:, summary["argmax_output"]])
        )

    def test_constant_component_survives_end_to_end(self):
        """A campaign whose QoI carries a constant entry (the t=0 trace
        row case) completes and reports the varying component."""
        spec = make_toy_sensitivity_spec(qoi="test-constant-pad")
        result = run_campaign(
            spec, reducer=JansenReducer(spec, num_bootstrap=10)
        )
        assert np.all(np.isnan(result.first_order[:, 1]))
        assert np.all(np.isfinite(result.total[:, 0]))
        summary = result.summary()
        assert summary["argmax_output"] == 0
        assert all(np.isfinite(summary["total"]))

    def test_ranking_requires_component_for_vector(self):
        spec = make_toy_sensitivity_spec(qoi="identity")
        result = run_campaign(
            spec, reducer=JansenReducer(spec, num_bootstrap=0)
        )
        from repro.errors import SamplingError

        with pytest.raises(SamplingError):
            result.ranking()
        assert len(result.ranking(component=0)) == spec.dimension


class TestRunnerDispatch:
    def test_run_campaign_serves_sensitivity_spec(self,
                                                  toy_sensitivity_spec):
        """The unified runner dispatches on the spec kind: a sensitivity
        spec reduces through the default jansen reducer, reproducing an
        explicit JansenReducer bit for bit."""
        unified = run_campaign(toy_sensitivity_spec)
        assert isinstance(unified, SensitivityResult)
        explicit = run_campaign(
            toy_sensitivity_spec,
            reducer=JansenReducer(toy_sensitivity_spec),
        )
        assert np.array_equal(unified.first_order, explicit.first_order)
        assert np.array_equal(unified.total, explicit.total)
        assert np.array_equal(unified.interval.total_lower,
                              explicit.interval.total_lower)

    def test_run_sensitivity_refuses_plain_spec(self):
        from .conftest import make_toy_spec

        with pytest.raises(CampaignError, match="SensitivitySpec"):
            run_campaign(make_toy_spec(), reducer="jansen")

    def test_generic_resume_dispatches_to_sensitivity(
            self, toy_sensitivity_spec, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = run_campaign(toy_sensitivity_spec, store=store)
        resumed = resume_campaign(store)
        assert isinstance(resumed, SensitivityResult)
        assert np.array_equal(first.first_order, resumed.first_order)

    def test_resume_sensitivity_refuses_plain_store(self, tmp_path):
        from .conftest import make_toy_spec

        store = ArtifactStore(tmp_path / "store")
        run_campaign(make_toy_spec(), store=store)
        with pytest.raises(CampaignError, match="SensitivitySpec"):
            resume_campaign(store, reducer="jansen")


class TestSensitivityCli:
    @pytest.fixture
    def sensitivity_spec_path(self, tmp_path):
        spec = make_toy_sensitivity_spec(num_base_samples=8, chunk_size=6)
        return str(spec.save(tmp_path / "sens.json"))

    def test_sobol_run_and_report(self, sensitivity_spec_path, tmp_path,
                                  capsys):
        from repro.campaign.cli import main

        store = str(tmp_path / "store")
        assert main(["run", sensitivity_spec_path, "--store", store,
                     "--quiet"]) == 0
        run_output = capsys.readouterr().out
        assert "Sobol indices" in run_output
        assert main(["report", store]) == 0
        assert capsys.readouterr().out == run_output

    def test_sobol_resume(self, sensitivity_spec_path, tmp_path, capsys):
        from repro.campaign.cli import main
        from repro.campaign.spec import CampaignSpec as Spec

        spec = Spec.load(sensitivity_spec_path)
        store = ArtifactStore(str(tmp_path / "store")).initialize(spec)
        model = resolve_model(spec.scenario)
        for chunk in campaign_chunks(spec, [1]):
            store.write_chunk(evaluate_chunk(model, chunk))
        assert main(["resume", store.path, "--quiet"]) == 0
        assert store.completed_chunks() == list(range(spec.num_chunks))
        assert "Sobol indices" in capsys.readouterr().out

    def test_sobol_run_rejects_plain_spec(self, tmp_path, capsys):
        from repro.campaign.cli import main

        from .conftest import make_toy_spec

        path = str(make_toy_spec().save(tmp_path / "plain.json"))
        assert main(["run", path, "--reducer", "jansen", "--quiet"]) == 1
        assert "SensitivitySpec" in capsys.readouterr().err

    def test_generic_run_routes_sensitivity_spec(self, sensitivity_spec_path,
                                                 capsys):
        from repro.campaign.cli import main

        assert main(["run", sensitivity_spec_path, "--quiet"]) == 0
        assert "Sobol indices" in capsys.readouterr().out

    def test_sobol_spec_template(self, tmp_path, capsys):
        from repro.campaign.cli import main

        out = tmp_path / "d16.json"
        assert main(["sobol", "spec", "date16", "--samples", "4",
                     "-o", str(out)]) == 0
        loaded = CampaignSpec.load(out)
        assert isinstance(loaded, SensitivitySpec)
        assert loaded.num_base_samples == 4
        assert loaded.dimension == 12
        assert loaded.scenario.qoi == "final"
        assert "wrote" in capsys.readouterr().out

    def test_sobol_spec_unknown_problem(self, tmp_path, capsys):
        from repro.campaign.cli import main

        assert main(["sobol", "spec", "mystery",
                     "-o", str(tmp_path / "x.json")]) == 2
        assert "no sensitivity spec template" in capsys.readouterr().err
