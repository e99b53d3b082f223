"""Fault injection: retry, quarantine, crash-safe stores, timeouts.

The flaky fixture model (``tests.campaign.flaky_problem``) fails
deterministically -- a permanently poisoned sample, a transient sample
that heals after K attempts (optionally by killing its whole worker
process), a straggler that sleeps -- so every recovery path can be
proven against a bitwise-identical failure-free reference campaign.
"""

import json
import os

import numpy as np
import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignSpec,
    ChunkEvaluationError,
    ChunkFailure,
    MomentsReducer,
    RetryPolicy,
    ScenarioSpec,
    run_campaign,
    resume_campaign,
)
from repro.campaign.cli import main
from repro.errors import CampaignError

from .conftest import drop_chunk_record, flip_chunk_log_byte
from .flaky_problem import MODULE, PROBLEM_NAME

DIMENSION = 4
SEED = 7


def make_flaky_spec(num_samples=20, chunk_size=5, seed=SEED,
                    options=None):
    """A campaign over the flaky problem; no options -> never fails."""
    scenario_options = {"seed": seed, "dimension": DIMENSION}
    scenario_options.update(options or {})
    return CampaignSpec(
        name=f"flaky-{num_samples}",
        scenario=ScenarioSpec(
            problem=PROBLEM_NAME,
            qoi="identity",
            options=scenario_options,
            module=MODULE,
        ),
        distribution={"kind": "normal", "mu": 0.0, "sigma": 1.0},
        dimension=DIMENSION,
        num_samples=num_samples,
        seed=seed,
        chunk_size=chunk_size,
    )


def clean_reference(tmp_path, num_samples=20, chunk_size=5):
    """The failure-free campaign every recovery must reproduce bitwise."""
    store = ArtifactStore(tmp_path / "reference")
    result = run_campaign(
        make_flaky_spec(num_samples, chunk_size), store=store
    )
    return result, store


def assert_successful_chunks_identical(store, reference_store,
                                       skip_chunks=()):
    indices = reference_store.completed_chunks()
    for chunk_index in indices:
        if chunk_index in skip_chunks:
            continue
        _, _, outputs = store.read_chunk(chunk_index)
        _, _, expected = reference_store.read_chunk(chunk_index)
        assert np.array_equal(outputs, expected), f"chunk {chunk_index}"


class TestRetryPolicy:
    def test_normalize_accepts_none_int_dict_policy(self):
        assert RetryPolicy.normalize(None) is None
        policy = RetryPolicy.normalize(3)
        assert policy.max_retries == 3
        policy = RetryPolicy.normalize(
            {"max_retries": 2, "backoff_s": 0.5}
        )
        assert policy.max_retries == 2
        assert policy.backoff_s == 0.5
        same = RetryPolicy(max_retries=1)
        assert RetryPolicy.normalize(same) is same

    def test_normalize_rejects_bool_and_garbage(self):
        with pytest.raises(CampaignError):
            RetryPolicy.normalize(True)
        with pytest.raises(CampaignError):
            RetryPolicy.normalize("twice")
        with pytest.raises(CampaignError):
            RetryPolicy.normalize({"max_retries": 1, "bogus": 2})

    def test_invalid_fields_rejected(self):
        with pytest.raises(CampaignError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(CampaignError):
            RetryPolicy(backoff_s=-0.5)
        with pytest.raises(CampaignError):
            RetryPolicy(timeout_s=0)

    def test_backoff_is_exponential_jittered_deterministic(self):
        policy = RetryPolicy(max_retries=3, backoff_s=1.0, seed=11)
        first = policy.delay_s(chunk_index=2, attempt=1)
        second = policy.delay_s(chunk_index=2, attempt=2)
        # Jitter keeps each delay inside [0.5, 1.5) x the exponential
        # base, and the schedule is a pure function of its inputs.
        assert 0.5 <= first < 1.5
        assert 1.0 <= second < 3.0
        assert first == policy.delay_s(chunk_index=2, attempt=1)
        other_chunk = policy.delay_s(chunk_index=3, attempt=1)
        assert first != other_chunk  # de-synchronized chunks
        assert RetryPolicy(backoff_s=0.0).delay_s(0, 1) == 0.0


class TestEvaluationErrorContext:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_fail_fast_error_names_chunk_samples_worker(
            self, tmp_path, executor):
        spec = make_flaky_spec(options={"poison_sample": 7})
        with pytest.raises(ChunkEvaluationError) as excinfo:
            run_campaign(spec, executor=executor)
        error = excinfo.value
        # Sample 7 lives in chunk 1 (samples 5..9 at chunk_size 5).
        assert "chunk 1" in str(error)
        assert "samples 5..9" in str(error)
        assert error.chunk_index == 1
        assert tuple(error.sample_indices) == (5, 6, 7, 8, 9)
        assert error.worker  # survives pool pickling too
        assert "poisoned sample 7" in error.cause_repr


class TestRetryThenSucceed:
    @pytest.mark.parametrize("executor,mode", [
        ("serial", "raise"),
        ("process", "raise"),
        ("process", "kill"),  # worker death -> pool rebuild
    ])
    def test_transient_heals_and_is_bitwise_clean(
            self, tmp_path, executor, mode):
        reference, reference_store = clean_reference(tmp_path)
        state = tmp_path / "state"
        state.mkdir()
        spec = make_flaky_spec(options={
            "transient_sample": 12,
            "fail_attempts": 1,
            "mode": mode,
            "state_dir": str(state),
        })
        store = ArtifactStore(tmp_path / "store")
        result = run_campaign(
            spec, store=store, executor=executor, retry=2
        )
        assert result.quarantine is None
        assert not os.path.isfile(store.quarantine_path)
        assert result.num_samples == spec.num_samples
        assert np.array_equal(result.mean, reference.mean)
        assert np.array_equal(result.std, reference.std)
        assert_successful_chunks_identical(store, reference_store)
        # The transient sample really did fail once before healing.
        markers = [name for name in os.listdir(state)
                   if name.startswith("transient_12.")]
        assert len(markers) >= 2


class TestQuarantine:
    def test_poisoned_chunk_quarantined_campaign_completes(
            self, tmp_path):
        reference, reference_store = clean_reference(tmp_path)
        spec = make_flaky_spec(options={"poison_sample": 7})
        store = ArtifactStore(tmp_path / "store")
        result = run_campaign(
            spec, store=store, retry=RetryPolicy(max_retries=1)
        )
        assert set(result.quarantine) == {1}
        record = result.quarantine[1]
        assert record["indices"] == [5, 6, 7, 8, 9]
        assert record["attempts"] == 2
        assert "poisoned sample 7" in record["error"]
        # On-disk record matches the in-memory one.
        assert store.read_quarantine() == result.quarantine
        with open(store.quarantine_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert set(payload["chunks"]) == {"1"}
        # The reduction completed over the surviving samples only...
        assert result.num_samples == spec.num_samples - 5
        summary = store.read_summary()
        assert summary["num_quarantined_chunks"] == 1
        assert summary["num_quarantined_samples"] == 5
        # ...and the successful chunks are bitwise the clean run's.
        assert_successful_chunks_identical(
            store, reference_store, skip_chunks={1}
        )

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_serial_process_quarantine_equivalence(
            self, tmp_path, executor):
        """Both backends quarantine the same chunk and reduce to the
        same statistics, bit for bit."""
        spec = make_flaky_spec(options={"poison_sample": 7})
        store = ArtifactStore(tmp_path / f"store-{executor}")
        result = run_campaign(
            spec, store=store, executor=executor, retry=1
        )
        reference_store = ArtifactStore(tmp_path / "store-reference")
        reference = run_campaign(
            spec, store=reference_store, executor="serial", retry=1
        )
        assert set(result.quarantine) == set(reference.quarantine) == {1}
        assert (result.quarantine[1]["indices"]
                == reference.quarantine[1]["indices"])
        assert np.array_equal(result.mean, reference.mean)
        assert np.array_equal(result.std, reference.std)
        assert result.num_samples == reference.num_samples

    def test_all_quarantined_raises(self, tmp_path):
        # Every chunk poisoned: sample i fails for every i -> nothing
        # left to reduce.
        spec = make_flaky_spec(num_samples=5, chunk_size=5,
                               options={"poison_sample": 2})
        with pytest.raises(CampaignError, match="quarantine"):
            run_campaign(
                spec, store=ArtifactStore(tmp_path / "store"), retry=0
            )

    def test_intolerant_reducer_refuses_quarantine(self, tmp_path):
        class StrictMoments(MomentsReducer):
            tolerates_missing_samples = False

        spec = make_flaky_spec(options={"poison_sample": 7})
        with pytest.raises(CampaignError, match="every sample"):
            run_campaign(
                spec, store=ArtifactStore(tmp_path / "store"),
                reducer=StrictMoments(), retry=0,
            )

    def test_memory_only_run_quarantines_without_store(self):
        spec = make_flaky_spec(options={"poison_sample": 7})
        result = run_campaign(spec, retry=0)
        assert set(result.quarantine) == {1}
        assert result.num_samples == spec.num_samples - 5

    def test_chunk_failed_events_and_metrics_recorded(self, tmp_path):
        spec = make_flaky_spec(options={"poison_sample": 7})
        store = ArtifactStore(tmp_path / "store")
        run_campaign(spec, store=store, retry=1, telemetry=True)
        failed = [event for event in store.read_run_events()
                  if event["event"] == "chunk_failed"]
        assert len(failed) == 1
        assert failed[0]["chunk"] == 1
        assert failed[0]["attempts"] == 2
        assert "poisoned" in failed[0]["error"]
        counters = store.read_telemetry_metrics()["counters"]
        assert counters["campaign.chunks_quarantined"] == 1
        assert counters["campaign.chunk_retries"] == 1


class TestResumeQuarantine:
    def test_resume_retries_and_heals_quarantined_chunk(self, tmp_path):
        reference, reference_store = clean_reference(tmp_path)
        state = tmp_path / "state"
        state.mkdir()
        spec = make_flaky_spec(options={
            "transient_sample": 12,
            "fail_attempts": 1,
            "state_dir": str(state),
        })
        store = ArtifactStore(tmp_path / "store")
        first = run_campaign(spec, store=store, retry=0)
        assert set(first.quarantine) == {2}  # sample 12 -> chunk 2
        assert store.read_quarantine()

        resumed = resume_campaign(store)
        assert resumed.quarantine is None
        assert not os.path.isfile(store.quarantine_path)
        assert resumed.num_samples == spec.num_samples
        assert np.array_equal(resumed.mean, reference.mean)
        assert np.array_equal(resumed.std, reference.std)
        assert_successful_chunks_identical(store, reference_store)
        summary = store.read_summary()
        assert "num_quarantined_chunks" not in summary

    def test_no_retry_quarantined_reduces_around(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        spec = make_flaky_spec(options={
            "transient_sample": 12,
            "fail_attempts": 1,
            "state_dir": str(state),
        })
        store = ArtifactStore(tmp_path / "store")
        first = run_campaign(spec, store=store, retry=0)
        assert set(first.quarantine) == {2}

        resumed = resume_campaign(store, retry_quarantined=False)
        # Still quarantined: the transient was never re-attempted.
        assert set(resumed.quarantine) == {2}
        assert store.read_quarantine() == resumed.quarantine
        assert resumed.num_samples == spec.num_samples - 5
        assert np.array_equal(resumed.mean, first.mean)
        assert np.array_equal(resumed.std, first.std)

    def test_kill_resume_with_quarantine_bit_identical(self, tmp_path):
        """A kill after quarantine + resume reproduces the
        uninterrupted quarantined campaign exactly."""
        spec = make_flaky_spec(options={"poison_sample": 7})
        uninterrupted_store = ArtifactStore(tmp_path / "uninterrupted")
        uninterrupted = run_campaign(
            spec, store=uninterrupted_store, retry=0
        )

        store = ArtifactStore(tmp_path / "interrupted")
        run_campaign(spec, store=store, retry=0)
        # Simulate a kill after the quarantine landed: later chunks,
        # the summary and the reduction snapshot are gone.
        drop_chunk_record(store, 3)
        os.remove(store.summary_path)
        if os.path.isfile(store.reducer_state_path):
            os.remove(store.reducer_state_path)

        resumed = resume_campaign(store, retry=0)
        assert set(resumed.quarantine) == {1}
        assert (resumed.quarantine[1]["indices"]
                == uninterrupted.quarantine[1]["indices"])
        assert np.array_equal(resumed.mean, uninterrupted.mean)
        assert np.array_equal(resumed.std, uninterrupted.std)
        assert_successful_chunks_identical(
            store, uninterrupted_store, skip_chunks={1}
        )


class TestStoreCrashSafety:
    def test_initialize_sweeps_stale_temp_files(self, tmp_path):
        spec = make_flaky_spec()
        store = ArtifactStore(tmp_path / "store")
        run_campaign(spec, store=store)
        # Plant the leaks a kill between mkstemp and os.replace leaves
        # (the legacy ``chunks/`` directory of a store from before the
        # chunk log included).
        stale = [
            os.path.join(store.path, "chunks", "chunk_000001.abc123.tmp"),
            os.path.join(store.path, "reducer_state.xyz789.tmp"),
            os.path.join(store.telemetry_dir, "chunk_000001.def.tmp"),
        ]
        os.makedirs(os.path.join(store.path, "chunks"))
        for path in stale:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("torn")
        store.initialize(spec)
        for path in stale:
            assert not os.path.exists(path)
        # The real artifacts survived the sweep.
        assert store.completed_chunks() == [0, 1, 2, 3]

    def test_corrupt_chunk_read_raises_campaign_error(self, tmp_path):
        spec = make_flaky_spec()
        store = ArtifactStore(tmp_path / "store")
        run_campaign(spec, store=store)
        flip_chunk_log_byte(store, 2)  # a bad sector in its outputs
        with pytest.raises(CampaignError, match="corrupt or truncated"):
            store.read_chunk(2)
        # The scan of the records' fixed parts still lists it; the
        # validating scan drops it, and every record after it, so resume
        # recomputes instead of crashing.
        store = ArtifactStore(store.path)
        assert store.completed_chunks() == [0, 1, 2, 3]
        assert store.completed_chunks(validate=True) == [0, 1]

    def test_resume_recomputes_corrupt_chunk(self, tmp_path):
        spec = make_flaky_spec()
        store = ArtifactStore(tmp_path / "store")
        first = run_campaign(spec, store=store)
        expected = store.read_chunk(2)
        flip_chunk_log_byte(store, 2)
        os.remove(store.summary_path)
        if os.path.isfile(store.reducer_state_path):
            os.remove(store.reducer_state_path)
        resumed = resume_campaign(store)
        assert np.array_equal(resumed.mean, first.mean)
        recomputed = store.read_chunk(2)
        for regenerated, original in zip(recomputed, expected):
            assert np.array_equal(regenerated, original)

    def test_quarantine_roundtrip_and_discard(self, tmp_path):
        spec = make_flaky_spec()
        store = ArtifactStore(tmp_path / "store").initialize(spec)
        record = {"chunk": 3, "indices": [15, 16], "error": "boom",
                  "attempts": 2}
        store.quarantine_chunk(3, record)
        store.quarantine_chunk(1, {"chunk": 1, "indices": [5],
                                   "error": "pow", "attempts": 1})
        assert set(store.read_quarantine()) == {1, 3}
        assert store.read_quarantine()[3] == record
        store.discard_quarantined([3])
        assert set(store.read_quarantine()) == {1}
        store.discard_quarantined([1])
        assert store.read_quarantine() == {}
        # Fully healed: the file itself is gone.
        assert not os.path.isfile(store.quarantine_path)


class TestChunkTimeout:
    def test_straggler_speculatively_resubmitted(self, tmp_path):
        reference, reference_store = clean_reference(tmp_path)
        state = tmp_path / "state"
        state.mkdir()
        spec = make_flaky_spec(options={
            "slow_sample": 12,
            "slow_s": 4.0,
            "fail_attempts": 1,
            "state_dir": str(state),
        })
        store = ArtifactStore(tmp_path / "store")
        # Two workers: the straggler parks on one while its speculative
        # replacement completes on the other (the pool's shutdown still
        # waits out the abandoned sleep at the end).
        from repro.campaign.executor import ParallelExecutor

        result = run_campaign(
            spec, store=store,
            executor=ParallelExecutor(num_workers=2),
            retry=RetryPolicy(max_retries=2, timeout_s=0.75),
        )
        assert result.quarantine is None
        assert result.num_samples == spec.num_samples
        assert np.array_equal(result.mean, reference.mean)
        assert_successful_chunks_identical(store, reference_store)


class TestCLIFaultInjection:
    """The acceptance scenario, end to end through the CLI."""

    @pytest.mark.parametrize("executor,mode", [
        ("serial", "raise"),
        ("process", "kill"),  # injected worker crash
    ])
    def test_64_sample_campaign_with_poison_and_transient(
            self, tmp_path, capsys, executor, mode):
        state = tmp_path / "state"
        state.mkdir()
        # Poison sample 9 -> chunk 1; transient sample 35 -> chunk 4.
        spec = make_flaky_spec(
            num_samples=64, chunk_size=8,
            options={
                "poison_sample": 9,
                "transient_sample": 35,
                "fail_attempts": 1,
                "mode": mode,
                "state_dir": str(state),
            },
        )
        spec_path = tmp_path / "campaign.json"
        spec.save(spec_path)
        store_path = tmp_path / "store"
        code = main([
            "run", str(spec_path), "--store", str(store_path),
            "--executor", executor, "--max-retries", "2", "--quiet",
        ])
        assert code == 0
        store = ArtifactStore(store_path)
        # The transient chunk healed on retry; only the poisoned chunk
        # is quarantined.
        quarantine = store.read_quarantine()
        assert set(quarantine) == {1}
        assert quarantine[1]["indices"] == list(range(8, 16))
        summary = store.read_summary()
        assert summary["num_quarantined_chunks"] == 1
        assert summary["num_quarantined_samples"] == 8
        assert summary["num_samples"] == 64 - 8
        capsys.readouterr()

        # report states the quarantined counts.
        assert main(["report", str(store_path)]) == 0
        report = capsys.readouterr().out
        assert "Quarantined chunks" in report
        assert "quarantined: 1 chunk(s) / 8 sample(s)" in report

        # resume retries the quarantined chunk (still poisoned -> it is
        # re-quarantined, campaign stays complete).
        code = main([
            "resume", str(store_path), "--executor", executor,
            "--max-retries", "2", "--quiet",
        ])
        assert code == 0
        requarantined = store.read_quarantine()
        assert set(requarantined) == {1}
        capsys.readouterr()

        # Successful samples are bitwise identical to a failure-free
        # run of the same campaign.
        clean_spec = make_flaky_spec(num_samples=64, chunk_size=8)
        clean_path = tmp_path / "clean.json"
        clean_spec.save(clean_path)
        clean_store_path = tmp_path / "clean-store"
        assert main([
            "run", str(clean_path), "--store", str(clean_store_path),
            "--quiet",
        ]) == 0
        capsys.readouterr()
        assert_successful_chunks_identical(
            store, ArtifactStore(clean_store_path), skip_chunks={1}
        )
        clean_summary = ArtifactStore(clean_store_path).read_summary()
        assert clean_summary["num_samples"] == 64
