"""PR-2/PR-3 era specs and stores keep working through the unified path.

The checked-in fixtures (``tests/campaign/fixtures/``; see
``make_fixtures.py`` there) freeze the historic serialization: spec JSON
without a ``reducer`` field and an on-disk store without provenance or
reducer state.  They must load, resume, and report unchanged -- and
round-trip byte-identically, so new fields never leak into old formats.
"""

import os
import shutil

import numpy as np
import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignSpec,
    SensitivityResult,
    SensitivitySpec,
    resume_campaign,
    run_campaign,
)
from repro.telemetry import MetricsRegistry, write_events

from .conftest import make_toy_spec

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixture(name):
    return os.path.join(FIXTURES, name)


class TestSpecCompatibility:
    def test_pr1_campaign_spec_round_trips_byte_identically(self):
        path = _fixture("pr1_campaign_spec.json")
        spec = CampaignSpec.load(path)
        assert type(spec) is CampaignSpec
        assert spec.reducer is None
        with open(path, "r", encoding="utf-8") as handle:
            on_disk = handle.read()
        assert spec.to_json() + "\n" == on_disk

    def test_pr2_sensitivity_spec_round_trips_byte_identically(self):
        path = _fixture("pr2_sensitivity_spec.json")
        spec = CampaignSpec.load(path)
        assert isinstance(spec, SensitivitySpec)
        assert spec.reducer is None
        assert not spec.second_order and not spec.groups
        with open(path, "r", encoding="utf-8") as handle:
            on_disk = handle.read()
        assert spec.to_json() + "\n" == on_disk

    def test_pr3_second_order_spec_round_trips_byte_identically(self):
        path = _fixture("pr3_sensitivity_spec.json")
        spec = CampaignSpec.load(path)
        assert isinstance(spec, SensitivitySpec)
        assert spec.second_order
        assert spec.groups == [(0, 1), (2, 3)]
        with open(path, "r", encoding="utf-8") as handle:
            on_disk = handle.read()
        assert spec.to_json() + "\n" == on_disk

    def test_pr1_spec_runs_through_unified_path(self):
        spec = CampaignSpec.load(_fixture("pr1_campaign_spec.json"))
        result = run_campaign(spec)
        assert result.num_samples == spec.num_samples

    def test_pr2_spec_runs_through_unified_path(self):
        spec = CampaignSpec.load(_fixture("pr2_sensitivity_spec.json"))
        result = run_campaign(spec)
        assert isinstance(result, SensitivityResult)
        assert result.interval is not None


class TestStoreCompatibility:
    @pytest.fixture
    def pr3_store(self, tmp_path):
        """A writable copy of the checked-in partial PR-3 store."""
        target = tmp_path / "pr3_store"
        shutil.copytree(_fixture("pr3_store"), target)
        return ArtifactStore(str(target))

    def test_manifest_without_provenance_loads(self, pr3_store):
        assert pr3_store.read_provenance() is None
        spec = pr3_store.load_spec()
        assert isinstance(spec, SensitivitySpec)
        assert pr3_store.read_reducer_state() is None

    def test_resume_completes_and_matches_fresh_run(self, pr3_store):
        """Resuming the historic store through the unified path finishes
        only the missing chunks and reproduces a from-scratch run of its
        pinned spec bit for bit."""
        spec = pr3_store.load_spec()
        fresh = run_campaign(spec)
        completed_before = set(pr3_store.completed_chunks())
        resumed = resume_campaign(pr3_store)
        assert isinstance(resumed, SensitivityResult)
        expected = sum(
            len(spec.chunk_indices(index))
            for index in range(spec.num_chunks)
            if index not in completed_before
        )
        assert resumed.num_evaluated == expected
        assert pr3_store.completed_chunks() == list(range(spec.num_chunks))
        assert np.array_equal(resumed.first_order, fresh.first_order)
        assert np.array_equal(resumed.total, fresh.total)
        assert np.array_equal(resumed.second_order.interaction,
                              fresh.second_order.interaction)
        assert np.array_equal(resumed.group_indices.total,
                              fresh.group_indices.total)
        assert np.array_equal(resumed.interval.total_lower,
                              fresh.interval.total_lower)

    def test_report_of_resumed_store(self, pr3_store, capsys):
        from repro.campaign.cli import main

        assert main(["resume", pr3_store.path, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["report", pr3_store.path]) == 0
        out = capsys.readouterr().out
        assert "Sobol indices" in out
        # The historic manifest carries no provenance record and the
        # report must not invent one.
        assert "provenance:" not in out

    def test_manifest_bytes_untouched_by_resume(self, pr3_store):
        with open(pr3_store.manifest_path, "rb") as handle:
            before = handle.read()
        resume_campaign(pr3_store)
        with open(pr3_store.manifest_path, "rb") as handle:
            after = handle.read()
        assert before == after


class Abort(RuntimeError):
    pass


def _to_legacy_telemetry_layout(store, orphans=()):
    """Rewrite a store's chunks into the layout before chunk files held
    their telemetry: ``chunks/chunk_<index>.npz`` files with the three
    arrays only, the events in ``telemetry/chunk_<index>.jsonl``, and no
    chunk log.  ``orphans`` maps a missing chunk to the event file a
    kill between the two old writes left behind."""
    def legacy_path(index):
        return os.path.join(store.telemetry_dir, f"chunk_{index:06d}.jsonl")

    chunk_dir = os.path.join(store.path, "chunks")
    os.makedirs(chunk_dir)
    for index in store.completed_chunks():
        events = store.read_chunk_telemetry(index)
        indices, parameters, outputs = store.read_chunk(index)
        with open(os.path.join(chunk_dir, f"chunk_{index:06d}.npz"),
                  "wb") as handle:
            np.savez(handle, indices=indices, parameters=parameters,
                     outputs=outputs)
        write_events(legacy_path(index), events)
    os.remove(store.chunk_log.path)
    for index, events in dict(orphans).items():
        write_events(legacy_path(index), events)


class TestLegacyChunkTelemetryLayout:
    """Stores whose chunk telemetry lives in ``telemetry/chunk_*.jsonl``
    (the layout before chunk files carried a ``telemetry`` member) still
    resume and report."""

    def test_half_finished_legacy_store_resumes(self, tmp_path):
        spec = make_toy_spec(num_samples=30, chunk_size=5)  # 6 chunks
        reference = ArtifactStore(tmp_path / "reference")
        expected = run_campaign(spec, store=reference, telemetry=True)

        store = ArtifactStore(tmp_path / "legacy")
        calls = []

        def kill_after_three(event):
            calls.append(event["done"])
            if len(calls) == 3:
                raise Abort()

        with pytest.raises(Abort):
            run_campaign(spec, store=store, telemetry=True,
                         progress=kill_after_three)
        assert store.completed_chunks() == [0, 1, 2]
        _to_legacy_telemetry_layout(
            store, orphans={3: reference.read_chunk_telemetry(3)})
        store = ArtifactStore(store.path)
        assert store.read_chunk_telemetry(0)[0]["chunk"] == 0

        resumed = resume_campaign(store, telemetry=True)
        assert resumed.num_evaluated == 15
        assert store.read_summary() == expected.summary()
        # The legacy files were read, never rewritten: the three
        # remaining chunks went to the log.
        assert ArtifactStore(store.path).chunk_log.chunks() == [3, 4, 5]
        for index in range(spec.num_chunks):
            for read, written in zip(store.read_chunk(index),
                                     reference.read_chunk(index)):
                assert read.tobytes() == written.tobytes()
        chunks = store.read_telemetry()["chunks"]
        assert sorted(chunks) == list(range(spec.num_chunks))
        for index, events in chunks.items():
            assert (events[0]["event"], events[0]["chunk"]) == \
                ("chunk", index)
        # The merged metrics count the legacy chunks' records too.
        merged = MetricsRegistry.from_dict(store.read_telemetry_metrics())
        assert merged.histogram_stats("chunk.wall_s")["count"] == \
            spec.num_chunks


class TestStreamingOptionStore:
    """A partial store written while the jansen reducer still took a
    ``streaming`` option: its manifest pins ``{"kind": "jansen",
    "num_bootstrap": 0, "streaming": true}`` and its reducer snapshot
    (5 of 8 chunks folded, scalar QoI, state arrays without a component
    axis) comes from that version."""

    def test_resume_restores_snapshot_and_matches_fresh_run(
            self, tmp_path, monkeypatch):
        target = tmp_path / "streaming_store"
        shutil.copytree(_fixture("streaming_store"), target)
        store = ArtifactStore(str(target))
        spec = store.load_spec()
        assert spec.reducer["streaming"] is True
        meta, _ = store.read_reducer_state()
        assert meta["reducer"]["streaming"] is True

        reads = []
        original = ArtifactStore.read_chunk

        def counting_read(self, chunk_index):
            reads.append(chunk_index)
            return original(self, chunk_index)

        monkeypatch.setattr(ArtifactStore, "read_chunk", counting_read)
        resumed = resume_campaign(store)
        monkeypatch.undo()
        # The snapshot continued the reduction: of the six chunks on
        # disk only the one after it was read.
        assert reads == [meta["next_chunk"]]
        assert resumed.streamed

        fresh = ArtifactStore(str(tmp_path / "fresh"))
        run_campaign(spec, store=fresh)
        assert store.read_summary() == fresh.read_summary()
