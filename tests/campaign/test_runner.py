"""Tests for deterministic sampling, execution, reduction and resume."""

import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    ArtifactStore,
    ParallelExecutor,
    SerialExecutor,
    resume_campaign,
    run_campaign,
)
from repro.campaign.executor import Executor, evaluate_chunk, resolve_model
from repro.campaign.runner import (
    _merged_campaign_metrics,
    campaign_chunks,
    campaign_parameters,
    unit_sample,
)
from repro.errors import CampaignError

from .conftest import make_toy_sensitivity_spec, make_toy_spec


class TestDeterministicSampling:
    def test_unit_sample_is_reproducible(self):
        first = unit_sample(7, 13, 5)
        second = unit_sample(7, 13, 5)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, unit_sample(7, 14, 5))
        assert not np.array_equal(first, unit_sample(8, 13, 5))

    def test_parameters_independent_of_partition(self, toy_spec):
        """Row i is the same whether generated alone or in the full set."""
        full = campaign_parameters(toy_spec)
        assert full.shape == (toy_spec.num_samples, toy_spec.dimension)
        subset = campaign_parameters(toy_spec, [3, 11, 17])
        assert np.array_equal(subset, full[[3, 11, 17]])

    def test_stream_sampler_slicing_is_consistent(self):
        spec = make_toy_spec(sampler="lhs")
        full = campaign_parameters(spec)
        subset = campaign_parameters(spec, [0, 5, 9])
        assert np.array_equal(subset, full[[0, 5, 9]])

    def test_out_of_range_indices_rejected(self, toy_spec):
        with pytest.raises(CampaignError):
            campaign_parameters(toy_spec, [toy_spec.num_samples])

    def test_chunks_cover_every_sample_once(self, toy_spec):
        chunks = campaign_chunks(toy_spec)
        covered = np.concatenate([c.indices for c in chunks])
        assert np.array_equal(np.sort(covered),
                              np.arange(toy_spec.num_samples))


class TestSeedSensitivity:
    """Two campaigns differing only in their seed must differ -- for
    EVERY sampler kind (the halton entry used to drop the seed
    entirely, and sobol's ``seed or 0`` collapsed None and 0)."""

    ALL_SAMPLERS = ("counter", "random", "lhs", "halton", "sobol")

    @pytest.mark.parametrize("sampler", ALL_SAMPLERS)
    def test_different_seeds_give_different_parameters(self, sampler):
        first = campaign_parameters(make_toy_spec(seed=1, sampler=sampler))
        second = campaign_parameters(make_toy_spec(seed=2, sampler=sampler))
        assert first.shape == second.shape
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("sampler", ALL_SAMPLERS)
    def test_same_seed_reproduces_parameters(self, sampler):
        first = campaign_parameters(make_toy_spec(seed=5, sampler=sampler))
        second = campaign_parameters(make_toy_spec(seed=5, sampler=sampler))
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("sampler", ALL_SAMPLERS)
    def test_sensitivity_campaigns_are_seed_sensitive(self, sampler):
        from .conftest import make_toy_sensitivity_spec

        first = campaign_parameters(
            make_toy_sensitivity_spec(seed=1, sampler=sampler)
        )
        second = campaign_parameters(
            make_toy_sensitivity_spec(seed=2, sampler=sampler)
        )
        assert not np.array_equal(first, second)


class TestRunCampaign:
    def test_in_memory_run_matches_direct_loop(self, toy_spec):
        result = run_campaign(toy_spec)
        model = resolve_model(toy_spec.scenario)
        parameters = campaign_parameters(toy_spec)
        outputs = np.stack([model(row) for row in parameters])
        assert result.num_samples == toy_spec.num_samples
        assert np.allclose(result.mean, outputs.mean(axis=0),
                           rtol=0, atol=1e-12)
        assert np.allclose(result.std, outputs.std(axis=0, ddof=1),
                           rtol=0, atol=1e-12)
        assert np.array_equal(result.parameters, parameters)

    def test_serial_and_parallel_are_bit_identical(self, toy_spec):
        serial = run_campaign(toy_spec, executor=SerialExecutor())
        parallel = run_campaign(
            toy_spec, executor=ParallelExecutor(num_workers=4)
        )
        assert np.array_equal(serial.mean, parallel.mean)
        assert np.array_equal(serial.std, parallel.std)
        assert np.array_equal(serial.minimum, parallel.minimum)
        assert np.array_equal(serial.maximum, parallel.maximum)

    def test_progress_callback(self, toy_spec):
        seen = []
        run_campaign(toy_spec, progress=lambda event:
                     seen.append((event["done"], event["total"])))
        assert seen[-1] == (toy_spec.num_chunks, toy_spec.num_chunks)
        assert len(seen) == toy_spec.num_chunks

    def test_store_checkpoints_every_chunk(self, toy_spec, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        result = run_campaign(toy_spec, store=store)
        assert store.completed_chunks() == list(range(toy_spec.num_chunks))
        assert store.read_summary() == result.summary()

    def test_error_summary_is_eq6(self, toy_spec):
        result = run_campaign(toy_spec)
        assert np.allclose(
            result.error(),
            result.std / np.sqrt(result.num_samples),
            rtol=0, atol=1e-15,
        )

    def test_invalid_spec_rejected(self):
        with pytest.raises(CampaignError):
            run_campaign({"name": "nope"})


class TestResume:
    def test_resume_reproduces_uninterrupted_run(self, toy_spec, tmp_path):
        """The acceptance property: kill -> resume == one uninterrupted run."""
        uninterrupted = run_campaign(toy_spec)

        # Simulate a killed run: only chunks 0 and 2 were checkpointed.
        store = ArtifactStore(tmp_path / "store").initialize(toy_spec)
        model = resolve_model(toy_spec.scenario)
        for chunk in campaign_chunks(toy_spec, [0, 2]):
            store.write_chunk(evaluate_chunk(model, chunk))

        resumed = resume_campaign(
            store, executor=ParallelExecutor(num_workers=2)
        )
        expected_evaluated = toy_spec.num_samples - sum(
            len(toy_spec.chunk_indices(i)) for i in (0, 2)
        )
        assert resumed.num_evaluated == expected_evaluated
        assert np.array_equal(resumed.mean, uninterrupted.mean)
        assert np.array_equal(resumed.std, uninterrupted.std)
        assert np.array_equal(resumed.parameters, uninterrupted.parameters)

    def test_resume_of_complete_store_recomputes_nothing(self, toy_spec,
                                                         tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = run_campaign(toy_spec, store=store)
        again = resume_campaign(store)
        assert again.num_evaluated == 0
        assert np.array_equal(first.mean, again.mean)
        assert np.array_equal(first.std, again.std)

    def test_resume_without_manifest_raises(self, tmp_path):
        with pytest.raises(CampaignError):
            resume_campaign(tmp_path / "empty")


class PermutedExecutor(Executor):
    """Serial evaluation, results yielded in a given chunk order."""

    name = "permuted"

    def __init__(self, order):
        self.order = list(order)

    def run_chunks(self, model_source, chunks, policy=None):
        model = resolve_model(model_source)
        results = {chunk.chunk_index: evaluate_chunk(model, chunk)
                   for chunk in chunks}
        for index in self.order:
            yield results[index]


def ahead_of_frontier(order):
    """Chunks of an arrival order that arrive before the fold frontier
    reaches them."""
    frontier, arrived, ahead = 0, set(), []
    for index in order:
        if index != frontier:
            ahead.append(index)
        arrived.add(index)
        while frontier in arrived:
            frontier += 1
    return ahead


class TestOutOfOrderFold:
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(("moments", "jansen")),
           order=st.integers(1, 6).flatmap(
               lambda n: st.permutations(range(n))))
    def test_only_chunks_ahead_of_the_frontier_are_read_back(self, kind,
                                                             order):
        num_chunks = len(order)
        if kind == "moments":
            spec = make_toy_spec(num_samples=3 * num_chunks, chunk_size=3)
        else:  # 4 base samples x (d + 2) = 24 evaluations
            spec = make_toy_sensitivity_spec(
                num_base_samples=4, chunk_size=-(-24 // num_chunks))
        assert spec.num_chunks == num_chunks
        serial = run_campaign(spec, telemetry=False)

        reads = []
        read_chunk = ArtifactStore.read_chunk

        def spy(store, chunk_index):
            reads.append(chunk_index)
            return read_chunk(store, chunk_index)

        with tempfile.TemporaryDirectory() as root, \
                pytest.MonkeyPatch.context() as patch:
            patch.setattr(ArtifactStore, "read_chunk", spy)
            store = ArtifactStore(root)
            permuted = run_campaign(spec, store=store, telemetry=True,
                                    executor=PermutedExecutor(order))
            assert sorted(reads) == sorted(ahead_of_frontier(order))
            # metrics.json merges in chunk-index order: the same bits as
            # a merge re-read from the chunk files.
            reread = _merged_campaign_metrics(
                store, {}, store.completed_chunks())
            assert json.dumps(reread.as_dict(), sort_keys=True) == \
                json.dumps(store.read_telemetry_metrics(), sort_keys=True)
        assert json.dumps(permuted.summary(), sort_keys=True) == \
            json.dumps(serial.summary(), sort_keys=True)
        assert np.array_equal(permuted.parameters, serial.parameters)
        if kind == "moments":
            for name in ("mean", "std", "minimum", "maximum"):
                assert np.array_equal(getattr(permuted, name),
                                      getattr(serial, name))
