"""Campaign telemetry: persisted event logs, kill/resume, progress."""

import os

import numpy as np
import pytest

from repro import telemetry
from repro.campaign import (
    ArtifactStore,
    ParallelExecutor,
    SerialExecutor,
    resume_campaign,
    run_campaign,
)
from repro.telemetry import MetricsRegistry, validate_events

from .conftest import make_toy_spec


@pytest.fixture
def restore_enabled_flag():
    was_enabled = telemetry.enabled()
    yield
    telemetry.enable() if was_enabled else telemetry.disable()


def _event_signature(events):
    """Timing-free structural signature of a chunk's event list."""
    signature = []
    for event in events:
        if event["event"] == "chunk":
            signature.append(("chunk", event["chunk"], event["samples"]))
        elif event["event"] == "span":
            attrs = tuple(sorted((event.get("attrs") or {}).items()))
            signature.append(("span", event["name"], event["parent"],
                              attrs))
        else:
            signature.append((event["event"],))
    return signature


def _store_signatures(store):
    data = store.read_telemetry()
    return {index: _event_signature(events)
            for index, events in data["chunks"].items()}


def _telemetry_member(store, chunk_index):
    """The raw ``telemetry`` member bytes of one chunk file."""
    with np.load(store.chunk_path(chunk_index)) as data:
        return data["telemetry"].tobytes()


class TestPersistedTelemetry:
    def test_serial_run_populates_store(self, toy_spec, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        run_campaign(toy_spec, store=store, telemetry=True)

        assert store.telemetry_chunks() == list(range(toy_spec.num_chunks))
        data = store.read_telemetry()
        for index, events in data["chunks"].items():
            validate_events(events)
            head = events[0]
            assert head["event"] == "chunk"
            assert head["chunk"] == index
            assert head["samples"] == len(toy_spec.chunk_indices(index))
            assert head["wall_s"] >= 0.0
            # One chunk span + one samples record with a wall time per
            # sample.
            spans = [e for e in events if e["event"] == "span"]
            assert [e["name"] for e in spans] == ["chunk"]
            samples = [e for e in events if e["event"] == "samples"]
            assert len(samples) == 1
            assert samples[0]["count"] == head["samples"]
            assert len(samples[0]["wall_s"]) == head["samples"]

        run_events = data["run"]
        validate_events(run_events)
        kinds = [e["event"] for e in run_events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_complete"
        assert kinds.count("chunk_complete") == toy_spec.num_chunks
        assert kinds.count("fold") == toy_spec.num_chunks

    def test_process_pool_run_populates_store(self, tmp_path):
        """The acceptance path: a 4-worker process campaign transports
        each worker's capture back and persists it."""
        spec = make_toy_spec(num_samples=16, chunk_size=2)
        store = ArtifactStore(tmp_path / "store")
        run_campaign(spec, store=store,
                     executor=ParallelExecutor(num_workers=4),
                     telemetry=True)
        assert store.telemetry_chunks() == list(range(spec.num_chunks))
        data = store.read_telemetry()
        heads = [events[0] for events in data["chunks"].values()]
        for head in heads:
            validate_events([head])
            # Workers stamp pid:thread labels; pool chunks report the
            # time they waited between dispatch and pickup.
            assert ":" in head["worker"]
            assert head["queue_wait_s"] >= 0.0

    def test_merged_metrics_json(self, toy_spec, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        run_campaign(toy_spec, store=store, telemetry=True)
        metrics = store.read_telemetry_metrics()
        assert metrics is not None
        merged = MetricsRegistry.from_dict(metrics)
        wall = merged.histogram_stats("chunk.wall_s")
        assert wall["count"] == toy_spec.num_chunks
        assert wall["min"] >= 0.0

    def test_results_identical_with_and_without_telemetry(self, toy_spec):
        on = run_campaign(toy_spec, telemetry=True)
        off = run_campaign(toy_spec, telemetry=False)
        assert np.array_equal(on.mean, off.mean)
        assert np.array_equal(on.std, off.std)

    def test_disabled_run_writes_nothing(self, toy_spec, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        run_campaign(toy_spec, store=store, telemetry=False)
        assert store.telemetry_chunks() == []
        assert store.read_run_events() == []
        assert store.read_telemetry_metrics() is None

    def test_global_disable_is_the_default_gate(self, toy_spec, tmp_path,
                                                restore_enabled_flag):
        telemetry.disable()
        store = ArtifactStore(tmp_path / "store")
        run_campaign(toy_spec, store=store)
        assert store.telemetry_chunks() == []
        # telemetry=True overrides the global flag.
        store2 = ArtifactStore(tmp_path / "store2")
        run_campaign(toy_spec, store=store2, telemetry=True)
        assert store2.telemetry_chunks() != []


class TestKillResume:
    def test_resume_preserves_and_completes_telemetry(self, tmp_path):
        spec = make_toy_spec(num_samples=12, chunk_size=4)  # 3 chunks

        reference = ArtifactStore(tmp_path / "reference")
        run_campaign(spec, store=reference, telemetry=True)

        interrupted = ArtifactStore(tmp_path / "interrupted")
        run_campaign(spec, store=interrupted, telemetry=True)
        # Simulate a kill before chunk 1's atomic write: its file (and
        # with it its telemetry member) is gone.
        os.remove(interrupted.chunk_path(1))
        survivor_bytes = _telemetry_member(interrupted, 0)

        resumed = resume_campaign(interrupted, telemetry=True)
        assert resumed.num_evaluated == 4

        # Completed chunks were never recomputed: their telemetry
        # members are byte-identical to before the kill.
        assert _telemetry_member(interrupted, 0) == survivor_bytes
        # The final chunk-ordered event set matches an uninterrupted
        # run structurally (timings differ, structure must not).
        assert _store_signatures(interrupted) == \
            _store_signatures(reference)

    def test_run_log_accumulates_across_resumes(self, tmp_path):
        spec = make_toy_spec(num_samples=12, chunk_size=4)
        store = ArtifactStore(tmp_path / "store")
        run_campaign(spec, store=store, telemetry=True)
        resume_campaign(store, telemetry=True)
        kinds = [e["event"] for e in store.read_run_events()]
        assert kinds.count("run_start") == 2
        assert kinds.count("run_complete") == 2
        # The resume had nothing to evaluate.
        assert kinds.count("chunk_complete") == spec.num_chunks


class TestProgressStyles:
    def test_event_style_callback_gets_heartbeats(self, toy_spec):
        events = []
        run_campaign(toy_spec, telemetry=False,
                     progress=lambda event: events.append(event))
        assert len(events) == toy_spec.num_chunks
        validate_events(events)
        assert [event["done"] for event in events] == \
            list(range(1, toy_spec.num_chunks + 1))
        last = events[-1]
        assert last["event"] == "heartbeat"
        assert last["done"] == last["total"] == toy_spec.num_chunks
        assert last["rate_per_s"] > 0.0
        assert all(e["eta_s"] is not None for e in events[:-1])

    def test_progress_fires_regardless_of_telemetry(self, toy_spec):
        seen = []
        run_campaign(toy_spec, telemetry=True,
                     progress=lambda e: seen.append(e))
        assert len(seen) == toy_spec.num_chunks


class TestExecutorEquivalence:
    def test_serial_and_parallel_telemetry_structure_match(self, tmp_path):
        spec = make_toy_spec(num_samples=8, chunk_size=2)
        serial = ArtifactStore(tmp_path / "serial")
        parallel = ArtifactStore(tmp_path / "parallel")
        run_campaign(spec, store=serial, executor=SerialExecutor(),
                     telemetry=True)
        run_campaign(spec, store=parallel,
                     executor=ParallelExecutor(num_workers=4),
                     telemetry=True)
        serial_sig = _store_signatures(serial)
        parallel_sig = _store_signatures(parallel)
        # Drop the chunk head (worker/queue fields legitimately differ
        # in presence); spans must match one for one.
        assert {k: v[1:] for k, v in serial_sig.items()} == \
            {k: v[1:] for k, v in parallel_sig.items()}
