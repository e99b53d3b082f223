"""JSONL telemetry events: schema, sink, reader, validation.

Every telemetry event is one flat JSON object per line (JSONL) with a
required string ``"event"`` field naming its kind.  The documented kinds
and their required fields (see DESIGN.md "Telemetry"):

``span``
    ``name`` (str), ``t0_s`` (number, offset from the capture origin),
    ``wall_s`` (number), ``parent`` (str or null); optional ``attrs``
    dict and ``error`` exception name.
``chunk``
    One per evaluated campaign chunk: ``chunk`` (int), ``samples``
    (int), ``worker`` (str), ``wall_s`` (number); optional
    ``queue_wait_s`` (number), ``start_walltime`` / ``end_walltime``
    (POSIX seconds) and ``metrics`` (a ``MetricsRegistry.as_dict``).
``samples``
    One per chunk evaluated row by row (models without
    ``evaluate_block``): ``count`` (int) rows and ``wall_s`` (list of
    numbers), the wall time of each row in chunk order.  It stands in
    for one span per row, so a chunk's telemetry stays one small event
    however many rows it holds.
``run_start``
    ``total_chunks`` (int), ``completed_chunks`` (int), ``walltime``
    (POSIX seconds).
``chunk_complete``
    ``chunk`` (int), ``done`` (int), ``total`` (int); optional
    ``wall_s``, ``queue_wait_s``, ``worker``.
``chunk_failed``
    One per chunk that exhausted its retries and was quarantined:
    ``chunk`` (int), ``attempts`` (int), ``error`` (str); optional
    ``samples`` (int) and ``worker``.
``fold``
    ``chunk`` (int), ``wall_s`` (number).
``heartbeat``
    ``done`` (int), ``total`` (int), ``rate_per_s`` (number);
    optional ``eta_s`` (number or null), ``wall_s``.
``progress``
    The persisted twin of ``heartbeat`` (atomically replaced in
    ``telemetry/progress.json`` for out-of-process status readers):
    ``done`` (int), ``total`` (int), ``rate_per_s`` (number);
    optional ``eta_s``, ``wall_s``, ``walltime``.
``status``
    One machine-readable store/job status snapshot, as streamed by the
    service layer's ``watch``: ``state`` (str); everything else
    optional (see DESIGN.md "Service layer" for the full payload).
``run_complete``
    ``total_chunks`` (int), ``num_evaluated`` (int), ``wall_s``
    (number); optional ``metrics``.

Unknown extra fields are always allowed (events are forward-
compatible); unknown event kinds fail validation so schema drift is
caught by the CI telemetry check instead of rotting silently.

The JSONL layout is what makes the log kill-safe: every line is
self-contained, appends are atomic enough at line granularity, and
:func:`read_events` tolerates a torn trailing line (a process killed
mid-write) by skipping it.
"""

import json
import os
import tempfile

from ..errors import TelemetryError

_NUMBER = (int, float)

#: Required fields per event kind: name -> {field: type tuple}.
EVENT_SCHEMA = {
    "span": {"name": str, "t0_s": _NUMBER, "wall_s": _NUMBER},
    "chunk": {
        "chunk": int, "samples": int, "worker": str, "wall_s": _NUMBER,
    },
    "samples": {"count": int, "wall_s": list},
    "run_start": {
        "total_chunks": int, "completed_chunks": int, "walltime": _NUMBER,
    },
    "chunk_complete": {"chunk": int, "done": int, "total": int},
    "chunk_failed": {"chunk": int, "attempts": int, "error": str},
    "fold": {"chunk": int, "wall_s": _NUMBER},
    "heartbeat": {"done": int, "total": int, "rate_per_s": _NUMBER},
    "progress": {"done": int, "total": int, "rate_per_s": _NUMBER},
    "status": {"state": str},
    "run_complete": {
        "total_chunks": int, "num_evaluated": int, "wall_s": _NUMBER,
    },
}


def validate_event(event):
    """Check one event dict against :data:`EVENT_SCHEMA`.

    Raises :class:`~repro.errors.TelemetryError` with a pointed message
    on the first violation; returns the event unchanged when valid.
    """
    if not isinstance(event, dict):
        raise TelemetryError(
            f"telemetry event must be a dict, got {type(event).__name__}"
        )
    kind = event.get("event")
    if not isinstance(kind, str):
        raise TelemetryError(
            "telemetry event needs a string 'event' kind field, got "
            f"{event!r}"
        )
    schema = EVENT_SCHEMA.get(kind)
    if schema is None:
        raise TelemetryError(
            f"unknown telemetry event kind {kind!r}; documented kinds: "
            f"{sorted(EVENT_SCHEMA)}"
        )
    for field, types in schema.items():
        if field not in event:
            raise TelemetryError(
                f"telemetry {kind!r} event is missing required field "
                f"{field!r}: {event!r}"
            )
        value = event[field]
        # bool is an int subclass but never a valid count/number here.
        if isinstance(value, bool) or not isinstance(value, types):
            raise TelemetryError(
                f"telemetry {kind!r} event field {field!r} has type "
                f"{type(value).__name__}, expected "
                f"{getattr(types, '__name__', None) or '/'.join(t.__name__ for t in types)}"
            )
    return event


def validate_events(events):
    """Validate an iterable of events; returns the count validated."""
    count = 0
    for event in events:
        validate_event(event)
        count += 1
    return count


def _encode(event):
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def write_events(path, events, validate=True):
    """Atomically write an event list as a JSONL file (temp + replace).

    The file either exists completely or not at all, so a killed
    writer never leaves a torn event file behind.
    """
    events = list(events)
    if validate:
        validate_events(events)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    descriptor, temporary = tempfile.mkstemp(dir=directory, suffix=".tmp")
    with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(_encode(event) + "\n")
    os.replace(temporary, path)
    return path


def append_events(path, events, validate=True):
    """Append events to a JSONL log, one line each, flushed.

    The append-mode twin of :func:`write_events` for run-scoped logs
    that accumulate across resumes.
    """
    events = list(events)
    if validate:
        validate_events(events)
    text = "".join(_encode(event) + "\n" for event in events)
    try:
        handle = open(path, "a", encoding="utf-8")
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        handle = open(path, "a", encoding="utf-8")
    with handle:
        handle.write(text)
        handle.flush()
    return path


def read_events(path):
    """Parse a JSONL event log into a list of dicts.

    A torn trailing line (the signature of a killed writer) is skipped
    silently; a malformed line elsewhere raises, because the writers
    only ever append complete lines.
    """
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if index == len(lines) - 1:
                break  # torn final line of a killed writer
            raise TelemetryError(
                f"corrupt telemetry log {path!r} at line {index + 1}: "
                f"{exc}"
            ) from exc
    return events


class EventSink:
    """A JSONL event writer bound to one file (append mode).

    The minimal streaming sink: ``emit`` validates and appends one
    line, flushed immediately so a kill loses at most the line being
    written.  Usable as a context manager.
    """

    def __init__(self, path, validate=True):
        self.path = str(path)
        self.validate = bool(validate)
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self.num_emitted = 0

    def emit(self, event):
        if self._handle is None:
            raise TelemetryError(
                f"event sink {self.path!r} is already closed"
            )
        if self.validate:
            validate_event(event)
        self._handle.write(_encode(event) + "\n")
        self._handle.flush()
        self.num_emitted += 1
        return event

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    def __repr__(self):
        state = "closed" if self._handle is None else "open"
        return f"EventSink({self.path!r}, {state}, {self.num_emitted} events)"
