"""JSONL event logs: schema validation, atomic writes, torn-line reads."""

import json
import os

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    EVENT_SCHEMA,
    EventSink,
    append_events,
    read_events,
    validate_event,
    validate_events,
    write_events,
)

GOOD_EVENTS = [
    {"event": "span", "name": "chunk", "t0_s": 0.0, "wall_s": 0.01,
     "parent": None},
    {"event": "chunk", "chunk": 0, "samples": 4, "worker": "123:Main",
     "wall_s": 0.5, "queue_wait_s": 0.0},
    {"event": "run_start", "total_chunks": 3, "completed_chunks": 0,
     "walltime": 1.7e9},
    {"event": "chunk_complete", "chunk": 0, "done": 1, "total": 3},
    {"event": "chunk_failed", "chunk": 1, "attempts": 3,
     "error": "ValueError('poisoned sample 9')"},
    {"event": "fold", "chunk": 0, "wall_s": 0.001},
    {"event": "heartbeat", "done": 1, "total": 3, "rate_per_s": 2.0,
     "eta_s": 1.0},
    {"event": "run_complete", "total_chunks": 3, "num_evaluated": 12,
     "wall_s": 1.5},
    {"event": "progress", "done": 2, "total": 3, "rate_per_s": 2.0,
     "eta_s": 0.5, "walltime": 1.7e9},
    {"event": "status", "state": "in_progress", "chunks_folded": 2},
    {"event": "samples", "count": 2, "wall_s": [0.01, 0.02]},
]


class TestValidation:
    def test_every_documented_kind_validates(self):
        assert validate_events(GOOD_EVENTS) == len(GOOD_EVENTS)
        assert {e["event"] for e in GOOD_EVENTS} == set(EVENT_SCHEMA)

    def test_extra_fields_are_forward_compatible(self):
        event = dict(GOOD_EVENTS[4], future_field={"nested": True})
        assert validate_event(event) is event

    def test_unknown_kind_rejected(self):
        with pytest.raises(TelemetryError, match="unknown telemetry"):
            validate_event({"event": "mystery"})

    def test_non_dict_and_missing_kind_rejected(self):
        with pytest.raises(TelemetryError):
            validate_event(["not", "a", "dict"])
        with pytest.raises(TelemetryError):
            validate_event({"name": "kindless"})

    def test_missing_required_field_rejected(self):
        with pytest.raises(TelemetryError, match="missing required"):
            validate_event({"event": "fold", "chunk": 2})

    def test_wrong_type_rejected(self):
        with pytest.raises(TelemetryError, match="has type"):
            validate_event({"event": "fold", "chunk": "2", "wall_s": 0.1})

    def test_bool_is_not_a_number(self):
        """bool subclasses int; a True chunk index is still a bug."""
        with pytest.raises(TelemetryError, match="has type"):
            validate_event({"event": "fold", "chunk": True, "wall_s": 0.1})


class TestWriteAndRead:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "deep" / "chunk_000000.jsonl"
        write_events(path, GOOD_EVENTS)
        assert read_events(path) == GOOD_EVENTS

    def test_write_is_atomic_replace(self, tmp_path):
        path = tmp_path / "chunk.jsonl"
        write_events(path, GOOD_EVENTS)
        write_events(path, GOOD_EVENTS[:2])
        assert read_events(path) == GOOD_EVENTS[:2]
        # No temp droppings left behind.
        assert sorted(os.listdir(tmp_path)) == ["chunk.jsonl"]

    def test_write_validates_by_default(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with pytest.raises(TelemetryError):
            write_events(path, [{"event": "mystery"}])
        assert not path.exists()
        write_events(path, [{"event": "mystery"}], validate=False)
        assert read_events(path) == [{"event": "mystery"}]

    def test_append_accumulates(self, tmp_path):
        path = tmp_path / "run.jsonl"
        append_events(path, GOOD_EVENTS[:3])
        append_events(path, GOOD_EVENTS[3:])
        assert read_events(path) == GOOD_EVENTS

    def test_torn_final_line_is_skipped(self, tmp_path):
        """A writer killed mid-line must not poison the whole log."""
        path = tmp_path / "run.jsonl"
        append_events(path, GOOD_EVENTS[:2])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "fold", "chunk": 2, "wa')
        assert read_events(path) == GOOD_EVENTS[:2]

    def test_mid_file_corruption_raises(self, tmp_path):
        """Writers only append whole lines, so garbage in the middle is
        real corruption, not a kill artifact."""
        path = tmp_path / "run.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(GOOD_EVENTS[0]) + "\n")
            handle.write("NOT JSON\n")
            handle.write(json.dumps(GOOD_EVENTS[1]) + "\n")
        with pytest.raises(TelemetryError, match="line 2"):
            read_events(path)

    def test_blank_lines_are_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(GOOD_EVENTS[0]) + "\n\n")
            handle.write(json.dumps(GOOD_EVENTS[1]) + "\n")
        assert read_events(path) == GOOD_EVENTS[:2]


class TestEventSink:
    def test_emit_appends_and_counts(self, tmp_path):
        path = tmp_path / "sink.jsonl"
        with EventSink(path) as sink:
            for event in GOOD_EVENTS:
                sink.emit(event)
            assert sink.num_emitted == len(GOOD_EVENTS)
        assert read_events(path) == GOOD_EVENTS

    def test_emit_validates(self, tmp_path):
        with EventSink(tmp_path / "sink.jsonl") as sink:
            with pytest.raises(TelemetryError):
                sink.emit({"event": "mystery"})
        assert read_events(tmp_path / "sink.jsonl") == []

    def test_emit_after_close_raises(self, tmp_path):
        sink = EventSink(tmp_path / "sink.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(TelemetryError, match="closed"):
            sink.emit(GOOD_EVENTS[0])
        assert "closed" in repr(sink)
