"""Tests for the pluggable Reducer protocol and the unified runner.

The acceptance matrix of the API redesign: the unified
``run_campaign`` + ``JansenReducer`` reproduces the dedicated
sensitivity path bit for bit across the ``serial`` / ``process`` /
``thread`` backends and kill/resume at chunk boundaries; the
``pce`` reducer fits the surrogate from checkpointed chunks alone.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignSpec,
    JansenReducer,
    MomentsReducer,
    PCEReducer,
    ParallelExecutor,
    Reducer,
    ScenarioSpec,
    SensitivityResult,
    SurrogateResult,
    make_executor,
    register_reducer,
    registered_reducers,
    resolve_reducer,
    resume_campaign,
    run_campaign,
)
from repro.campaign.executor import evaluate_chunk, resolve_model
from repro.campaign.runner import campaign_chunks
from repro.errors import CampaignError
from repro.uq.analytic import ishigami_distribution, ishigami_indices

from .conftest import make_toy_sensitivity_spec, make_toy_spec


class TestReducerRegistry:
    def test_builtins_registered(self):
        assert {"moments", "jansen", "pce"} <= set(registered_reducers())

    def test_unknown_kind_lists_registered(self, toy_spec):
        with pytest.raises(CampaignError, match="unknown reducer"):
            resolve_reducer(toy_spec, "mystery")

    def test_defaults_follow_spec_kind(self, toy_spec,
                                       toy_sensitivity_spec):
        assert isinstance(resolve_reducer(toy_spec, None), MomentsReducer)
        assert isinstance(
            resolve_reducer(toy_sensitivity_spec, None), JansenReducer
        )

    def test_spec_reducer_field_wins_over_default(self):
        spec = make_toy_spec()
        spec.reducer = {"kind": "pce", "degree": 1}
        reducer = resolve_reducer(spec, None)
        assert isinstance(reducer, PCEReducer)
        assert reducer.degree == 1

    def test_pce_underdetermined_campaign_rejected_early(self):
        """The basis-vs-samples check fires at reducer construction,
        before any solve is paid."""
        spec = make_toy_spec(num_samples=10)
        with pytest.raises(CampaignError, match="basis terms"):
            resolve_reducer(spec, {"kind": "pce", "degree": 3})

    def test_argument_wins_over_spec_field(self):
        spec = make_toy_spec()
        spec.reducer = {"kind": "pce"}
        assert isinstance(
            resolve_reducer(spec, "moments"), MomentsReducer
        )

    def test_invalid_options_rejected(self, toy_spec):
        with pytest.raises(CampaignError, match="invalid options"):
            resolve_reducer(toy_spec, {"kind": "moments", "bogus": 1})

    def test_custom_reducer_registrable(self, toy_spec):
        @register_reducer("test-count")
        class CountReducer(Reducer):
            kind = "test-count"

            def __init__(self, spec):
                self.count = 0

            def fold(self, indices, outputs):
                self.count += len(indices)

            def finalize(self, spec, parameters, num_evaluated):
                return self.count

        try:
            assert run_campaign(toy_spec, reducer="test-count") == \
                toy_spec.num_samples
        finally:
            from repro.campaign import reducer as reducer_module

            reducer_module._REDUCERS.pop("test-count", None)

    def test_jansen_requires_sensitivity_spec(self, toy_spec):
        with pytest.raises(CampaignError, match="SensitivitySpec"):
            JansenReducer(toy_spec)

    def test_spec_reducer_field_serializes_only_when_set(self):
        spec = make_toy_spec()
        assert "reducer" not in spec.to_dict()
        pinned = CampaignSpec.from_dict(
            {**spec.to_dict(), "reducer": {"kind": "pce", "degree": 4}}
        )
        assert pinned.to_dict()["reducer"] == {"kind": "pce", "degree": 4}
        round_trip = CampaignSpec.from_json(pinned.to_json())
        assert round_trip.reducer == {"kind": "pce", "degree": 4}


class TestStateRoundTrip:
    def test_moments_state_continues_bitwise(self, toy_spec):
        chunks = [
            evaluate_chunk(resolve_model(toy_spec.scenario), chunk)
            for chunk in campaign_chunks(toy_spec)
        ]
        reference = MomentsReducer(toy_spec)
        for chunk in chunks:
            reference.fold(chunk.indices, chunk.outputs)

        half = MomentsReducer(toy_spec)
        for chunk in chunks[:2]:
            half.fold(chunk.indices, chunk.outputs)
        restored = MomentsReducer(toy_spec)
        restored.load_state_dict(half.state_dict())
        for chunk in chunks[2:]:
            restored.fold(chunk.indices, chunk.outputs)
        assert np.array_equal(reference.statistics.mean,
                              restored.statistics.mean)
        assert np.array_equal(reference.statistics.std(),
                              restored.statistics.std())

    @pytest.mark.parametrize("qoi", ["test-scalar-sum", "identity"])
    def test_jansen_state_continues_bitwise(self, qoi):
        """Both accumulator representations (scalar fast path and the
        vector arrays) snapshot and continue exactly."""
        spec = make_toy_sensitivity_spec(qoi=qoi)
        chunks = [
            evaluate_chunk(resolve_model(spec.scenario), chunk)
            for chunk in campaign_chunks(spec)
        ]
        reference = JansenReducer(spec, num_bootstrap=0)
        for chunk in chunks:
            reference.fold(chunk.indices, chunk.outputs)

        half = JansenReducer(spec, num_bootstrap=0)
        for chunk in chunks[:3]:
            half.fold(chunk.indices, chunk.outputs)
        restored = JansenReducer(spec, num_bootstrap=0)
        restored.load_state_dict(half.state_dict())
        for chunk in chunks[3:]:
            restored.fold(chunk.indices, chunk.outputs)

        parameters = np.empty((spec.num_samples, spec.dimension))
        a = reference.finalize(spec, parameters, 0)
        b = restored.finalize(spec, parameters, 0)
        assert np.array_equal(a.first_order, b.first_order)
        assert np.array_equal(a.total, b.total)

    def test_merge_contract(self, toy_spec, toy_sensitivity_spec):
        first = MomentsReducer(toy_spec).fold([0], np.ones((1, 2)))
        second = MomentsReducer(toy_spec).fold([1], 3 * np.ones((1, 2)))
        merged = first.merge(second)
        assert merged.statistics.count == 2
        with pytest.raises(CampaignError, match="fixed order"):
            JansenReducer(toy_sensitivity_spec).merge(
                JansenReducer(toy_sensitivity_spec)
            )


class TestUnifiedEquivalenceMatrix:
    """Acceptance: one runner, every backend, bit for bit."""

    def _reference(self, spec):
        return run_campaign(spec, executor="serial")

    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_backends_match_serial_bitwise(self, backend):
        spec = make_toy_sensitivity_spec()
        reference = self._reference(spec)
        result = run_campaign(spec, executor=make_executor(backend, 4))
        assert np.array_equal(reference.first_order, result.first_order)
        assert np.array_equal(reference.total, result.total)
        assert np.array_equal(reference.parameters, result.parameters)
        assert np.array_equal(reference.interval.total_lower,
                              result.interval.total_lower)
        assert np.array_equal(reference.interval.first_order_upper,
                              result.interval.first_order_upper)

    def test_thread_pool_instance_matches_serial(self):
        """A ready thread-pool executor instance reproduces serial bit
        for bit."""
        spec = make_toy_sensitivity_spec()
        reference = self._reference(spec)
        result = run_campaign(
            spec,
            executor=ParallelExecutor(num_workers=4, pool=ThreadPoolExecutor),
        )
        assert np.array_equal(reference.first_order, result.first_order)
        assert np.array_equal(reference.interval.total_upper,
                              result.interval.total_upper)

    def test_kill_resume_at_chunk_boundaries(self, tmp_path):
        """Every partial prefix of checkpointed chunks resumes to the
        uninterrupted result, across backends."""
        spec = make_toy_sensitivity_spec(num_base_samples=8, chunk_size=9)
        reference = self._reference(spec)
        model = resolve_model(spec.scenario)
        for boundary in range(spec.num_chunks):
            store = ArtifactStore(tmp_path / f"kill-{boundary}")
            store.initialize(spec)
            for chunk in campaign_chunks(spec, range(boundary)):
                store.write_chunk(evaluate_chunk(model, chunk))
            resumed = resume_campaign(
                store,
                executor=ParallelExecutor(num_workers=2)
                if boundary % 2 else None,
            )
            assert isinstance(resumed, SensitivityResult)
            assert np.array_equal(reference.first_order,
                                  resumed.first_order)
            assert np.array_equal(reference.total, resumed.total)
            assert np.array_equal(reference.interval.total_lower,
                                  resumed.interval.total_lower)

    def test_moments_campaign_unchanged_by_redesign(self, toy_spec):
        """The unified path reproduces the classic per-chunk Welford +
        ordered Chan merge reduction exactly."""
        from repro.uq.statistics import RunningStatistics

        result = run_campaign(toy_spec)
        statistics = RunningStatistics()
        for chunk in campaign_chunks(toy_spec):
            outputs = evaluate_chunk(
                resolve_model(toy_spec.scenario), chunk
            ).outputs
            chunk_statistics = RunningStatistics()
            for row in range(outputs.shape[0]):
                chunk_statistics.update(outputs[row])
            statistics.merge(chunk_statistics)
        assert np.array_equal(result.mean, statistics.mean)
        assert np.array_equal(result.std, statistics.std())


class TestReducerCheckpoint:
    def test_streaming_reduction_is_checkpointed(self, tmp_path):
        spec = make_toy_sensitivity_spec()
        store = ArtifactStore(tmp_path / "store")
        result = run_campaign(spec, store=store,
                              reducer={"kind": "jansen",
                                       "num_bootstrap": 0})
        meta, arrays = store.read_reducer_state()
        assert meta["next_chunk"] == spec.num_chunks
        assert meta["reducer"]["kind"] == "jansen"

        # The snapshot alone reconstructs the reduction bit for bit.
        restored = JansenReducer(spec, num_bootstrap=0)
        restored.load_state_dict({
            key: value for key, value in arrays.items()
            if key != "__parameters__"
        })
        finalized = restored.finalize(
            spec, arrays["__parameters__"], 0
        )
        assert np.array_equal(result.first_order, finalized.first_order)
        assert np.array_equal(result.total, finalized.total)
        assert np.array_equal(result.parameters, arrays["__parameters__"])

    def test_resume_restores_reduction_without_rereading_chunks(
            self, tmp_path, monkeypatch):
        spec = make_toy_sensitivity_spec()
        store = ArtifactStore(tmp_path / "store")
        reducer = {"kind": "jansen", "num_bootstrap": 0}
        first = run_campaign(spec, store=store, reducer=reducer)

        reads = []
        original = ArtifactStore.read_chunk

        def counting_read(self, chunk_index):
            reads.append(chunk_index)
            return original(self, chunk_index)

        monkeypatch.setattr(ArtifactStore, "read_chunk", counting_read)
        again = resume_campaign(store, reducer=reducer)
        assert reads == []  # the reduction came from the snapshot
        assert again.num_evaluated == 0
        assert np.array_equal(first.first_order, again.first_order)

    def test_mismatched_checkpoint_is_ignored(self, tmp_path):
        """A snapshot from a different reducer config never leaks into
        the reduction -- the chunks are re-folded instead."""
        spec = make_toy_sensitivity_spec()
        store = ArtifactStore(tmp_path / "store")
        run_campaign(spec, store=store,
                     reducer={"kind": "jansen", "num_bootstrap": 0})
        reference = run_campaign(spec)  # default: bootstrap from spec
        resumed = resume_campaign(store)  # config differs from snapshot
        assert resumed.interval is not None
        assert np.array_equal(reference.first_order, resumed.first_order)
        assert np.array_equal(reference.interval.total_lower,
                              resumed.interval.total_lower)

    def test_bootstrap_reducer_not_checkpointed(self, tmp_path):
        spec = make_toy_sensitivity_spec()
        store = ArtifactStore(tmp_path / "store")
        run_campaign(spec, store=store)  # spec default: bootstrap on
        assert store.read_reducer_state() is None


class TestPCEReducer:
    def _uniform_spec(self, **kwargs):
        """Toy campaign over uniform inputs: the Legendre germ equals a
        linear map of the parameters, so low-degree polynomials are
        represented exactly."""
        return make_toy_spec(
            options=None, qoi="test-first-entry", **kwargs
        )

    def test_linear_model_recovers_equal_shares(self):
        spec = make_toy_spec(num_samples=64, qoi="test-first-entry")
        spec.distribution = {"kind": "uniform", "lower": -1.0,
                             "upper": 1.0}
        result = run_campaign(spec, reducer={"kind": "pce", "degree": 2})
        assert isinstance(result, SurrogateResult)
        # f = sum(p): each of the 4 iid inputs carries exactly 1/4.
        assert np.allclose(result.first_order.ravel(), 0.25, atol=1e-8)
        assert np.allclose(result.total.ravel(), 0.25, atol=1e-8)
        assert result.num_evaluated == spec.num_samples

    def test_surrogate_is_callable(self):
        spec = make_toy_spec(num_samples=64, qoi="test-first-entry")
        spec.distribution = {"kind": "uniform", "lower": -1.0,
                             "upper": 1.0}
        result = run_campaign(spec, reducer={"kind": "pce", "degree": 2})
        point = np.array([0.3, -0.2, 0.1, 0.4])
        assert result(point) == pytest.approx(point.sum(), abs=1e-8)

    def test_refit_from_existing_store_without_solves(self, tmp_path):
        """The ROADMAP surrogate mode: a PCE re-reduce of an existing
        campaign store performs zero fresh evaluations."""
        spec = make_toy_spec(num_samples=64, qoi="test-first-entry")
        store = ArtifactStore(tmp_path / "store")
        run_campaign(spec, store=store)  # moments campaign fills chunks
        surrogate = resume_campaign(
            store, reducer={"kind": "pce", "degree": 2}
        )
        assert isinstance(surrogate, SurrogateResult)
        assert surrogate.num_evaluated == 0
        summary = store.read_summary()
        assert summary["kind"] == "pce"

    def test_incomplete_stream_rejected(self, toy_spec):
        reducer = PCEReducer(toy_spec, degree=1)
        reducer.fold([0, 1], np.ones((2, 3)))
        with pytest.raises(CampaignError, match="incomplete"):
            reducer.finalize(toy_spec, None, 0)

    def test_invalid_degree_rejected(self, toy_spec):
        with pytest.raises(CampaignError):
            PCEReducer(toy_spec, degree=0)

    def test_ishigami_indices_within_bootstrap_intervals(self):
        """Acceptance: the surrogate's analytic Sobol indices land
        inside the seeded 95% bootstrap CIs of the Saltelli campaign on
        the Ishigami fixture -- at a fraction of its solve count."""
        scenario = ScenarioSpec(
            problem="ishigami", qoi="identity",
            module="repro.uq.analytic",
        )
        from repro.campaign.sensitivity import SensitivitySpec

        saltelli = SensitivitySpec(
            name="ishigami-jansen", scenario=scenario,
            distribution=ishigami_distribution(), dimension=3,
            num_base_samples=256, seed=11, chunk_size=256,
            num_bootstrap=200,
        )
        jansen = run_campaign(saltelli)

        pce_spec = CampaignSpec(
            name="ishigami-pce", scenario=scenario,
            distribution=ishigami_distribution(), dimension=3,
            num_samples=330, seed=11, chunk_size=64, sampler="random",
            reducer={"kind": "pce", "degree": 8},
        )
        surrogate = run_campaign(pce_spec)
        assert pce_spec.num_samples < saltelli.num_samples / 3

        truth = ishigami_indices()
        # Accurate against ground truth...
        assert np.allclose(surrogate.first_order,
                           truth["first_order"], atol=0.02)
        assert np.allclose(surrogate.total, truth["total"], atol=0.02)
        # ...and inside the Saltelli campaign's seeded bootstrap CIs.
        interval = jansen.interval
        assert np.all(surrogate.first_order
                      >= interval.first_order_lower - 1e-12)
        assert np.all(surrogate.first_order
                      <= interval.first_order_upper + 1e-12)
        assert np.all(surrogate.total >= interval.total_lower - 1e-12)
        assert np.all(surrogate.total <= interval.total_upper + 1e-12)

    def test_summary_and_report(self, capsys):
        from repro.reporting import format_pce_summary

        spec = make_toy_spec(num_samples=64, qoi="test-first-entry")
        spec.distribution = {"kind": "uniform", "lower": 0.0,
                             "upper": 1.0}
        result = run_campaign(spec, reducer={"kind": "pce", "degree": 2})
        summary = result.summary()
        assert summary["kind"] == "pce"
        assert summary["degree"] == 2
        assert len(summary["first_order"]) == spec.dimension
        text = format_pce_summary(summary)
        assert "PCE surrogate campaign" in text
        assert "Surrogate Sobol indices" in text

    def test_vector_qoi_per_component(self):
        spec = make_toy_spec(num_samples=80, qoi="identity")
        spec.distribution = {"kind": "uniform", "lower": -1.0,
                             "upper": 1.0}
        result = run_campaign(spec, reducer={"kind": "pce", "degree": 3})
        assert result.first_order.shape == (spec.dimension, 3)
        with pytest.raises(CampaignError):
            result.ranking()
        assert len(result.ranking(component=0)) == spec.dimension


class TestIshigamiScenarioSanity:
    def test_closed_forms_are_finite(self):
        truth = ishigami_indices()
        assert math.isclose(float(np.sum(truth["first_order"])
                                  + truth["second_order"][(0, 2)]), 1.0,
                            rel_tol=1e-12)
