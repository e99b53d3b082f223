"""Status / partial-summary reads: checkpoint files only, never chunks."""

import json

import pytest

from repro.campaign import ArtifactStore, run_campaign
from repro.campaign.cli import main
from repro.errors import CampaignError
from repro.service import partial_moments, partial_summary, store_status

from tests.campaign.conftest import make_toy_spec


class Abort(RuntimeError):
    pass


def run_partially(spec, store_path, stop_after=3):
    """Run a campaign but kill it (by exception) after N chunks."""
    seen = [0]

    def progress(done, total):
        seen[0] += 1
        if seen[0] >= stop_after:
            raise Abort()

    with pytest.raises(Abort):
        run_campaign(spec, store=store_path, progress=progress)
    return ArtifactStore(str(store_path))


class TestStoreStatus:
    def test_empty_store(self, tmp_path):
        status = store_status(tmp_path / "nothing")
        assert status["state"] == "empty"
        assert status["event"] == "status"

    def test_in_progress_store(self, tmp_path):
        spec = make_toy_spec(num_samples=40, chunk_size=5)
        store = run_partially(spec, tmp_path / "s")
        status = store_status(store)
        assert status["state"] == "in_progress"
        assert status["campaign"] == spec.name
        assert status["total_chunks"] == spec.num_chunks
        assert 0 < status["chunks_completed"] < spec.num_chunks
        assert 0 < status["chunks_folded"] <= status["chunks_completed"]
        assert status["progress"]["total"] == spec.num_chunks
        moments = status["moments"]
        assert moments["count"] == status["chunks_folded"] * 5
        assert moments["mean_max"] >= moments["mean_min"]
        assert not status["locked"]

    def test_reducer_state_read_once_per_snapshot(self, tmp_path,
                                                  monkeypatch):
        spec = make_toy_spec(num_samples=40, chunk_size=5)
        store = run_partially(spec, tmp_path / "s")
        reads = []
        read_reducer_state = ArtifactStore.read_reducer_state

        def spy(self):
            reads.append(self.path)
            return read_reducer_state(self)

        monkeypatch.setattr(ArtifactStore, "read_reducer_state", spy)
        status = store_status(store)
        assert status["chunks_folded"] > 0
        assert status["moments"]["count"] == status["chunks_folded"] * 5
        assert len(reads) == 1

    def test_complete_store(self, tmp_path):
        spec = make_toy_spec()
        result = run_campaign(spec, store=tmp_path / "s")
        status = store_status(tmp_path / "s")
        assert status["state"] == "complete"
        assert status["chunks_folded"] == spec.num_chunks
        assert status["summary"] == result.summary()
        assert status["progress"]["done"] == spec.num_chunks

    def test_status_never_reads_chunk_npz(self, tmp_path, monkeypatch):
        spec = make_toy_spec(num_samples=40, chunk_size=5)
        store = run_partially(spec, tmp_path / "s")

        def forbidden(self, chunk_index):
            raise AssertionError(
                f"status read chunk {chunk_index} npz"
            )

        monkeypatch.setattr(ArtifactStore, "read_chunk", forbidden)
        status = store_status(store)
        assert status["chunks_completed"] > 0
        assert "moments" in status
        partial_summary(store)


class TestPartialSummary:
    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign manifest"):
            partial_summary(tmp_path / "nothing")

    def test_partial_matches_checkpointed_moments(self, tmp_path):
        spec = make_toy_spec(num_samples=40, chunk_size=5)
        store = run_partially(spec, tmp_path / "s")
        summary = partial_summary(store)
        assert summary["partial"] is True
        assert summary["campaign"] == spec.name
        moments = partial_moments(store)
        assert summary["num_samples"] == moments["count"]
        assert summary["mean_max"] == moments["mean_max"]
        assert summary["chunks_folded"] == store.read_reducer_state()[0][
            "next_chunk"
        ]

    def test_complete_store_returns_summary_json(self, tmp_path):
        spec = make_toy_spec()
        result = run_campaign(spec, store=tmp_path / "s")
        assert partial_summary(tmp_path / "s") == result.summary()

    def test_partial_moments_none_without_checkpoint(self, tmp_path):
        spec = make_toy_spec()
        ArtifactStore(str(tmp_path / "s")).initialize(spec)
        assert partial_moments(tmp_path / "s") is None


class TestReportPartialCli:
    def test_report_errors_without_flag(self, tmp_path, capsys):
        spec = make_toy_spec(num_samples=40, chunk_size=5)
        store = run_partially(spec, tmp_path / "s")
        assert main(["report", store.path]) == 1
        assert "no summary" in capsys.readouterr().err

    def test_report_partial_prints_table(self, tmp_path, capsys):
        spec = make_toy_spec(num_samples=40, chunk_size=5)
        store = run_partially(spec, tmp_path / "s")
        assert main(["report", store.path, "--partial"]) == 0
        output = capsys.readouterr().out
        assert "PARTIAL" in output
        assert "Chunks folded (frontier)" in output

    def test_report_partial_on_complete_store_is_normal(
            self, tmp_path, capsys):
        spec = make_toy_spec()
        run_campaign(spec, store=tmp_path / "s")
        assert main(["report", str(tmp_path / "s"), "--partial"]) == 0
        output = capsys.readouterr().out
        assert "PARTIAL" not in output
        assert "Campaign summary" in output

    def test_status_command_emits_json(self, tmp_path, capsys):
        spec = make_toy_spec()
        run_campaign(spec, store=tmp_path / "s")
        assert main(["status", str(tmp_path / "s")]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == "complete"

    def test_watch_command_on_complete_store(self, tmp_path, capsys):
        spec = make_toy_spec()
        run_campaign(spec, store=tmp_path / "s")
        assert main(["watch", str(tmp_path / "s"),
                     "--interval", "0.01"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert json.loads(lines[-1])["state"] == "complete"
