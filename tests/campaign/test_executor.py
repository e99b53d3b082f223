"""Tests for executor backends and model resolution."""

import os
import threading
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)

import numpy as np
import pytest

from repro.campaign import (
    ChunkFailure,
    ParallelExecutor,
    RetryPolicy,
    SerialExecutor,
    WorkChunk,
    make_executor,
    register_backend,
    registered_backends,
)
from repro.campaign.executor import resolve_model
from repro.campaign.runner import campaign_chunks
from repro.errors import CampaignError


def _module_model(parameters):
    """Picklable plain-callable model."""
    p = np.asarray(parameters, dtype=float)
    return np.array([p.sum(), p.min()])


class _CountingSource:
    """Picklable model source that logs each build as ``pid:thread``."""

    def __init__(self, scenario, log_path):
        self.scenario = scenario
        self.log_path = str(log_path)

    def build_model(self):
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(
                f"{os.getpid()}:{threading.current_thread().name}\n"
            )
        return self.scenario.build_model()


class _FailingSource:
    """Picklable model source whose build always raises."""

    def build_model(self):
        raise RuntimeError("model build failed")


def _outputs_by_chunk(results):
    return {result.chunk_index: result.outputs for result in results}


class TestResolveModel:
    def test_plain_callable_passes_through(self):
        assert resolve_model(_module_model) is _module_model

    def test_build_model_is_called(self, toy_spec):
        model = resolve_model(toy_spec.scenario)
        output = model(np.zeros(4))
        assert output.shape == (3,)

    def test_invalid_source_rejected(self):
        with pytest.raises(CampaignError):
            resolve_model(42)


class TestWorkChunk:
    def test_shape_validation(self):
        with pytest.raises(CampaignError):
            WorkChunk(0, [0, 1], np.zeros((3, 2)))
        with pytest.raises(CampaignError):
            WorkChunk(0, [0, 1], np.zeros(4))


class TestSerialExecutor:
    def test_run_chunks(self, toy_spec):
        chunks = campaign_chunks(toy_spec)
        results = list(
            SerialExecutor().run_chunks(toy_spec.scenario, chunks)
        )
        assert [r.chunk_index for r in results] == list(
            range(toy_spec.num_chunks)
        )
        total = sum(r.outputs.shape[0] for r in results)
        assert total == toy_spec.num_samples


class TestParallelExecutor:
    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_pool_backend_contract(self, backend, toy_spec, tmp_path):
        """Both pool kinds: bitwise equal to serial, one model build per
        worker at most, and the same outcome for a failing build."""
        chunks = campaign_chunks(toy_spec)
        serial = _outputs_by_chunk(
            SerialExecutor().run_chunks(toy_spec.scenario, chunks)
        )
        executor = make_executor(backend, num_workers=2)
        log = tmp_path / "builds.log"
        pooled = _outputs_by_chunk(executor.run_chunks(
            _CountingSource(toy_spec.scenario, log), chunks
        ))
        assert serial.keys() == pooled.keys()
        for index in serial:
            assert np.array_equal(serial[index], pooled[index])
        builds = log.read_text(encoding="utf-8").split()
        assert 1 <= len(builds) <= executor.num_workers
        assert len(set(builds)) == len(builds)

        with pytest.raises(BrokenExecutor):
            list(executor.run_chunks(_FailingSource(), chunks))
        outcomes = list(executor.run_chunks(
            _FailingSource(), chunks, policy=RetryPolicy(max_retries=1)
        ))
        assert all(isinstance(o, ChunkFailure) for o in outcomes)
        assert sorted(o.chunk_index for o in outcomes) == list(
            range(toy_spec.num_chunks)
        )

    def test_pool_factory_lifecycle(self, toy_spec):
        """Any pool factory works; one pool per run, shut down after."""
        created = []

        def pool(**kwargs):
            created.append(ThreadPoolExecutor(**kwargs))
            return created[-1]

        executor = ParallelExecutor(num_workers=2, pool=pool)
        chunks = campaign_chunks(toy_spec)
        results = list(executor.run_chunks(toy_spec.scenario, chunks))
        assert len(results) == toy_spec.num_chunks
        assert len(created) == 1
        assert created[0]._shutdown

    def test_run_chunks_covers_all_chunks(self, toy_spec):
        chunks = campaign_chunks(toy_spec)
        results = list(
            ParallelExecutor(num_workers=3).run_chunks(
                toy_spec.scenario, chunks
            )
        )
        assert sorted(r.chunk_index for r in results) == list(
            range(toy_spec.num_chunks)
        )

    def test_empty_chunk_list(self, toy_spec):
        executor = ParallelExecutor(num_workers=2)
        assert list(executor.run_chunks(toy_spec.scenario, [])) == []

    def test_empty_chunk_list_thread_pool(self, toy_spec):
        executor = ParallelExecutor(num_workers=2, pool=ThreadPoolExecutor)
        assert list(executor.run_chunks(toy_spec.scenario, [])) == []

    def test_invalid_worker_count(self):
        with pytest.raises(CampaignError):
            ParallelExecutor(num_workers=0)

    @pytest.mark.parametrize("max_pending", [0, -3])
    def test_max_pending_below_one_rejected(self, max_pending):
        """Zero chunks in flight would never submit anything."""
        with pytest.raises(CampaignError, match="max_pending"):
            ParallelExecutor(num_workers=1, max_pending=max_pending)


class TestMakeExecutor:
    def test_kinds(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor("serial"), SerialExecutor)
        process = make_executor("process", num_workers=3)
        assert isinstance(process, ParallelExecutor)
        assert process.num_workers == 3
        assert process.pool is ProcessPoolExecutor
        assert process.name == "process"
        thread = make_executor("thread", num_workers=2)
        assert isinstance(thread, ParallelExecutor)
        assert thread.pool is ThreadPoolExecutor
        assert thread.name == "thread"

    def test_instance_passes_through(self):
        executor = SerialExecutor()
        assert make_executor(executor) is executor

    def test_instance_with_workers_rejected(self):
        with pytest.raises(CampaignError):
            make_executor(SerialExecutor(), num_workers=2)

    def test_unknown_kind(self):
        for kind in ("gpu", "parallel"):
            with pytest.raises(CampaignError, match="registered"):
                make_executor(kind)

    def test_serial_with_workers_is_an_error(self):
        """The --workers footgun: silently ignoring the flag is worse
        than refusing it."""
        with pytest.raises(CampaignError, match="serial"):
            make_executor("serial", num_workers=4)
        with pytest.raises(CampaignError):
            make_executor(None, num_workers=4)


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert {"serial", "process", "thread"} <= set(
            registered_backends()
        )
        assert "parallel" not in registered_backends()

    def test_custom_backend_registrable(self, toy_spec):
        @register_backend("test-backend")
        def _factory(num_workers=None):
            return SerialExecutor()

        try:
            assert isinstance(
                make_executor("test-backend"), SerialExecutor
            )
        finally:
            from repro.campaign import executor as executor_module

            executor_module._BACKENDS.pop("test-backend", None)


def _block_model(parameters):
    p = np.asarray(parameters, dtype=float)
    return np.array([p.sum()])


_block_model.evaluate_block = lambda block: np.asarray(
    block, dtype=float
).sum(axis=1, keepdims=True)


class TestBlockedChunkEvaluation:
    def _chunk(self, num_samples=4, capture=False):
        parameters = np.arange(num_samples * 2.0).reshape(num_samples, 2)
        return WorkChunk(0, np.arange(num_samples), parameters,
                         capture_telemetry=capture)

    def test_block_interface_detected(self):
        from repro.campaign.executor import evaluate_chunk

        chunk = self._chunk()
        result = evaluate_chunk(_block_model, chunk)
        expected = np.stack([_block_model(row) for row in chunk.parameters])
        assert np.array_equal(result.outputs, expected)

    def test_plain_callable_falls_back_to_row_loop(self):
        from repro.campaign.executor import evaluate_chunk

        chunk = self._chunk()
        result = evaluate_chunk(_module_model, chunk)
        assert result.outputs.shape == (4, 2)

    def test_blocked_and_loop_outputs_match(self):
        from repro.campaign.executor import evaluate_chunk

        chunk = self._chunk(num_samples=6)
        blocked = evaluate_chunk(_block_model, chunk)
        plain = evaluate_chunk(
            lambda row: _block_model(row), self._chunk(num_samples=6)
        )
        assert np.array_equal(blocked.outputs, plain.outputs)

    def test_wrong_block_output_count_rejected(self):
        from repro.campaign.executor import evaluate_chunk

        def bad(parameters):
            return np.array([0.0])

        bad.evaluate_block = lambda block: np.zeros((1, 1))
        with pytest.raises(CampaignError, match="outputs"):
            evaluate_chunk(bad, self._chunk(num_samples=3))

    def test_blocked_telemetry_record(self):
        from repro.campaign.executor import evaluate_chunk

        result = evaluate_chunk(_block_model, self._chunk(capture=True))
        record = result.telemetry
        assert record is not None
        counters = record["metrics"]["counters"]
        assert counters["campaign.blocked_solves"] == 4
        assert "campaign.loop_solves" not in counters
        assert record["metrics"]["gauges"]["campaign.batch_size"] == 4
        histogram = record["metrics"]["histograms"][
            "campaign.sample_amortized_s"
        ]
        assert histogram["count"] == 1
        spans = [e for e in record["events"] if e.get("event") == "span"]
        assert any(e["name"] == "block" for e in spans)
        assert not any(e["name"] == "sample" for e in spans)

    def test_loop_telemetry_record(self):
        from repro.campaign.executor import evaluate_chunk

        result = evaluate_chunk(_module_model, self._chunk(capture=True))
        counters = result.telemetry["metrics"]["counters"]
        assert counters["campaign.loop_solves"] == 4
        assert "campaign.blocked_solves" not in counters
        # One ``samples`` record with a wall time per row, no row spans.
        events = result.telemetry["events"]
        assert not any(e.get("name") == "sample" for e in events)
        samples = [e for e in events if e.get("event") == "samples"]
        assert len(samples) == 1
        assert samples[0]["count"] == 4
        assert len(samples[0]["wall_s"]) == 4
        assert all(wall >= 0.0 for wall in samples[0]["wall_s"])
