"""Tests for the resumable artifact store."""

import os

import numpy as np
import pytest

from repro.campaign import ArtifactStore
from repro.campaign.executor import ChunkResult
from repro.errors import CampaignError, TelemetryError

from .conftest import make_toy_spec


def _chunk(index, rows=3, dim=4, width=3):
    rng = np.random.default_rng(index)
    return ChunkResult(
        index,
        np.arange(index * rows, (index + 1) * rows),
        rng.random((rows, dim)),
        rng.random((rows, width)),
    )


class TestLifecycle:
    def test_initialize_creates_manifest(self, tmp_path, toy_spec):
        store = ArtifactStore(tmp_path / "store")
        assert not store.exists()
        store.initialize(toy_spec)
        assert store.exists()
        assert store.load_spec().to_dict() == toy_spec.to_dict()

    def test_initialize_is_idempotent(self, tmp_path, toy_spec):
        store = ArtifactStore(tmp_path / "store")
        store.initialize(toy_spec)
        store.initialize(toy_spec)  # same spec: fine
        assert store.completed_chunks() == []

    def test_spec_mismatch_refused(self, tmp_path, toy_spec):
        store = ArtifactStore(tmp_path / "store")
        store.initialize(toy_spec)
        different = make_toy_spec(num_samples=99)
        with pytest.raises(CampaignError):
            store.initialize(different)

    def test_non_spec_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            ArtifactStore(tmp_path / "s").initialize({"name": "nope"})


class TestChunks:
    def test_write_read_round_trip(self, tmp_path, toy_spec):
        store = ArtifactStore(tmp_path / "store").initialize(toy_spec)
        original = _chunk(2)
        store.write_chunk(original)
        indices, parameters, outputs = store.read_chunk(2)
        assert np.array_equal(indices, original.indices)
        assert np.array_equal(parameters, original.parameters)
        assert np.array_equal(outputs, original.outputs)

    def test_completed_chunks_sorted(self, tmp_path, toy_spec):
        store = ArtifactStore(tmp_path / "store").initialize(toy_spec)
        for index in (4, 0, 2):
            store.write_chunk(_chunk(index))
        assert store.completed_chunks() == [0, 2, 4]

    def test_one_log_no_partial_files(self, tmp_path, toy_spec):
        """One record per chunk in ``chunks.log``: no per-chunk file, no
        temp file and no ``chunks/`` directory."""
        store = ArtifactStore(tmp_path / "store").initialize(toy_spec)
        store.write_chunk(_chunk(0))
        assert store.write_chunk(_chunk(1)) == store.chunk_log.path
        assert sorted(os.listdir(store.path)) == [
            "chunks.log", "manifest.json", "telemetry",
        ]
        assert os.listdir(store.telemetry_dir) == []

    def test_missing_chunk_raises(self, tmp_path, toy_spec):
        store = ArtifactStore(tmp_path / "store").initialize(toy_spec)
        with pytest.raises(CampaignError):
            store.read_chunk(0)

    def test_events_travel_inside_the_chunk_record(self, tmp_path,
                                                   toy_spec):
        store = ArtifactStore(tmp_path / "store").initialize(toy_spec)
        events = [{"event": "chunk", "chunk": 2, "samples": 3,
                   "worker": "w", "wall_s": 0.25}]
        original = _chunk(2)
        store.write_chunk(original, events=events)
        assert os.listdir(store.telemetry_dir) == []
        # A fresh instance reads them back from the log alone.
        store = ArtifactStore(store.path)
        assert store.read_chunk_telemetry(2) == events
        assert store.telemetry_chunks() == [2]
        # The member is optional for readers of the outputs.
        assert store.completed_chunks(validate=True) == [2]
        for read, written in zip(store.read_chunk(2), (
                original.indices, original.parameters, original.outputs)):
            assert read.dtype == written.dtype
            assert read.shape == written.shape
            assert read.tobytes() == written.tobytes()

    def test_chunk_without_events_has_no_telemetry(self, tmp_path,
                                                   toy_spec):
        store = ArtifactStore(tmp_path / "store").initialize(toy_spec)
        store.write_chunk(_chunk(0))
        assert store.read_chunk_telemetry(0) == []
        assert store.telemetry_chunks() == []

    def test_invalid_events_write_nothing(self, tmp_path, toy_spec):
        store = ArtifactStore(tmp_path / "store").initialize(toy_spec)
        with pytest.raises(TelemetryError):
            store.write_chunk(_chunk(0), events=[{"event": "mystery"}])
        assert not os.path.exists(store.chunk_log.path)

    def test_initialize_creates_the_telemetry_directory_only(
            self, tmp_path, toy_spec):
        store = ArtifactStore(tmp_path / "store").initialize(toy_spec)
        assert os.path.isdir(store.telemetry_dir)
        assert not os.path.exists(os.path.join(store.path, "chunks"))
        # An existing store missing it gets it back on initialize.
        os.rmdir(store.telemetry_dir)
        store.initialize(toy_spec)
        assert os.path.isdir(store.telemetry_dir)

    def test_foreign_files_ignored(self, tmp_path, toy_spec):
        store = ArtifactStore(tmp_path / "store").initialize(toy_spec)
        legacy = os.path.join(store.path, "chunks")
        os.makedirs(legacy)
        with open(os.path.join(legacy, "notes.txt"), "w") as fh:
            fh.write("not a chunk\n")
        with open(os.path.join(legacy, "chunk_bad.npz"), "w") as fh:
            fh.write("")
        assert store.completed_chunks() == []

    def test_index_follows_appends_of_another_instance(self, tmp_path,
                                                       toy_spec):
        writer = ArtifactStore(tmp_path / "store").initialize(toy_spec)
        reader = ArtifactStore(writer.path)
        writer.write_chunk(_chunk(0))
        assert reader.completed_chunks() == [0]
        writer.write_chunk(_chunk(1))
        assert reader.completed_chunks(validate=True) == [0, 1]
        assert reader.read_chunk(1)[2].tobytes() == \
            _chunk(1).outputs.tobytes()
        # A log removed and recreated is indexed afresh.
        os.remove(writer.chunk_log.path)
        writer.write_chunk(_chunk(2))
        assert reader.completed_chunks() == [2]
        assert reader.read_chunk(2)[0].tolist() == [6, 7, 8]


class TestSummary:
    def test_round_trip(self, tmp_path, toy_spec):
        store = ArtifactStore(tmp_path / "store").initialize(toy_spec)
        payload = {"campaign": "toy", "num_samples": 24, "mean_max": 1.5}
        store.write_summary(payload)
        assert store.read_summary() == payload

    def test_missing_summary_raises(self, tmp_path, toy_spec):
        store = ArtifactStore(tmp_path / "store").initialize(toy_spec)
        with pytest.raises(CampaignError):
            store.read_summary()

    def test_corrupt_manifest_raises(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        os.makedirs(store.path, exist_ok=True)
        with open(store.manifest_path, "w") as fh:
            fh.write("{not json")
        with pytest.raises(CampaignError):
            store.load_spec()
