"""Property: a run killed at any filesystem operation resumes exactly.

A kill (a ``BaseException``, so no handler in the program swallows it)
is injected before or after one filesystem operation of a serial run:
an atomic write's ``mkstemp`` or ``os.replace``, a chunk-log append, a
``run.jsonl`` append or the store lock's heartbeat ``utime``.  Resuming
the killed store must reproduce the uninterrupted run: the same
summary, bitwise equal chunk arrays and reducer state, telemetry on
every chunk, and no temporary file left behind.

A second property damages the chunk log of a finished run the way a
kill mid-append or a bad medium does -- a cut anywhere inside its last
record, or a flipped byte inside a middle record -- and requires the
validating scan to drop exactly the damaged record and every record
after it, ``initialize`` to truncate the log there, and a resume to
reproduce the undamaged run.
"""

import contextlib
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import ArtifactStore, resume_campaign, run_campaign
from repro.campaign.store import ChunkLog

from .conftest import (
    flip_chunk_log_byte,
    make_toy_sensitivity_spec,
    make_toy_spec,
)

#: Reducer label -> (spec factory of ``num_chunks`` chunks, reducer).
#: ``jansen`` keeps the spec's bootstrap (in-memory, no snapshots);
#: ``jansen-streaming`` checkpoints its running sums.
REDUCERS = {
    "moments": (
        lambda chunks: make_toy_spec(num_samples=2 * chunks, chunk_size=2),
        None,
    ),
    "jansen": (
        # 4 base samples x (d + 2) = 24 evaluations.
        lambda chunks: make_toy_sensitivity_spec(
            num_base_samples=4, chunk_size=-(-24 // chunks)),
        None,
    ),
    "jansen-streaming": (
        lambda chunks: make_toy_sensitivity_spec(
            num_base_samples=4, chunk_size=-(-24 // chunks)),
        {"kind": "jansen", "num_bootstrap": 0},
    ),
}


class Killed(BaseException):
    """A simulated kill of the runner process."""


class Injector:
    """Counts the store's filesystem operations; optionally kills the
    run before or after operation number ``kill_at[0]``."""

    def __init__(self, root, kill_at=None):
        self.root = os.path.abspath(root)
        self.kill_at = kill_at
        self.kinds = []

    def inside(self, path):
        return path is not None and os.path.abspath(path).startswith(
            self.root + os.sep)

    @property
    def count(self):
        return len(self.kinds)

    def around(self, kind, operation, undo=None):
        number = self.count
        self.kinds.append(kind)
        if self.kill_at == (number, "before"):
            raise Killed(f"before operation {number}")
        result = operation()
        if self.kill_at == (number, "after"):
            if undo is not None:
                undo(result)
            raise Killed(f"after operation {number}")
        return result


@contextlib.contextmanager
def injected(injector):
    mkstemp, replace, utime = tempfile.mkstemp, os.replace, os.utime
    append = ArtifactStore.append_run_events
    log_append = ChunkLog.append

    def counted_mkstemp(*args, **kwargs):
        if not injector.inside(kwargs.get("dir")):
            return mkstemp(*args, **kwargs)
        # A killed process closes its descriptors; the file stays.
        return injector.around("mkstemp",
                               lambda: mkstemp(*args, **kwargs),
                               undo=lambda made: os.close(made[0]))

    def counted_replace(source, target, *args, **kwargs):
        if not injector.inside(target):
            return replace(source, target, *args, **kwargs)
        return injector.around(
            "replace", lambda: replace(source, target, *args, **kwargs))

    def counted_utime(path, *args, **kwargs):
        if not injector.inside(path):
            return utime(path, *args, **kwargs)
        return injector.around(
            "utime", lambda: utime(path, *args, **kwargs))

    def counted_append(store, events):
        return injector.around("append", lambda: append(store, events))

    def counted_log_append(log, *args, **kwargs):
        if not injector.inside(log.path):
            return log_append(log, *args, **kwargs)
        return injector.around(
            "log_append", lambda: log_append(log, *args, **kwargs))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tempfile, "mkstemp", counted_mkstemp)
        patch.setattr(os, "replace", counted_replace)
        patch.setattr(os, "utime", counted_utime)
        patch.setattr(ArtifactStore, "append_run_events", counted_append)
        patch.setattr(ChunkLog, "append", counted_log_append)
        yield injector


def _bits(arrays):
    return [(array.dtype.str, array.shape, array.tobytes())
            for array in arrays]


def _snapshot(store):
    """Everything a resume must reproduce, in comparable form."""
    chunks = store.completed_chunks(validate=True)
    state = store.read_reducer_state()
    return {
        "summary": json.dumps(store.read_summary(), sort_keys=True),
        "chunks": {index: _bits(store.read_chunk(index))
                   for index in chunks},
        "reducer_state": None if state is None else (
            state[0], {name: _bits([array])
                       for name, array in state[1].items()}),
    }


@settings(max_examples=60, deadline=None)
@given(label=st.sampled_from(sorted(REDUCERS)),
       num_chunks=st.integers(1, 6), data=st.data())
def test_kill_at_any_operation_then_resume_matches_uninterrupted_run(
        label, num_chunks, data):
    make_spec, reducer = REDUCERS[label]
    spec = make_spec(num_chunks)
    assert spec.num_chunks == num_chunks
    with tempfile.TemporaryDirectory() as root:
        with injected(Injector(os.path.join(root, "reference"))) as counter:
            run_campaign(spec, store=counter.root, reducer=reducer,
                         telemetry=True)
        reference = ArtifactStore(counter.root)
        kill_at = data.draw(st.tuples(
            st.integers(0, counter.count - 1),
            st.sampled_from(("before", "after"))), label="kill_at")

        store = ArtifactStore(os.path.join(root, "killed"))
        with injected(Injector(store.path, kill_at)):
            with pytest.raises(Killed):
                run_campaign(spec, store=store, reducer=reducer,
                             telemetry=True)
        if store.exists():
            resume_campaign(store, reducer=reducer, telemetry=True)
        else:  # killed before the manifest was published
            run_campaign(spec, store=store, reducer=reducer,
                         telemetry=True)

        assert _snapshot(store) == _snapshot(reference)
        assert store.completed_chunks() == list(range(num_chunks))
        for index in range(num_chunks):
            head = store.read_chunk_telemetry(index)[0]
            assert (head["event"], head["chunk"]) == ("chunk", index)
        leftovers = [name for _, _, names in os.walk(store.path)
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []
        assert not os.path.exists(store.lock_path)


def test_injector_sees_every_operation_kind(tmp_path):
    """The property above kills around each kind of operation it names."""
    injector = Injector(tmp_path / "store")
    with injected(injector):
        run_campaign(make_toy_spec(num_samples=4, chunk_size=2),
                     store=injector.root, telemetry=True)
    assert set(injector.kinds) == {"mkstemp", "replace", "utime", "append",
                                   "log_append"}


def _finished_run(spec, reducer, path):
    store = ArtifactStore(path)
    run_campaign(spec, store=store, reducer=reducer, telemetry=True)
    return store


@settings(max_examples=40, deadline=None)
@given(label=st.sampled_from(sorted(REDUCERS)),
       num_chunks=st.integers(3, 6), data=st.data())
def test_torn_or_flipped_log_recovers_and_resumes_exactly(
        label, num_chunks, data):
    make_spec, reducer = REDUCERS[label]
    spec = make_spec(num_chunks)
    with tempfile.TemporaryDirectory() as root:
        reference = _finished_run(spec, reducer,
                                  os.path.join(root, "reference"))
        store = _finished_run(spec, reducer, os.path.join(root, "damaged"))
        # Record lengths vary with the telemetry's timings, so the byte
        # is drawn as a position modulo the record's length.
        position = data.draw(st.integers(0, 2**16), label="byte")
        if data.draw(st.booleans(), label="cut"):
            # Killed inside the last append: a prefix of its record.
            bad = num_chunks - 1
            offset, length = store.chunk_log.extent(bad)
            os.truncate(store.chunk_log.path, offset + position % length)
        else:
            bad = data.draw(st.integers(1, num_chunks - 2), label="flipped")
            flip_chunk_log_byte(store, bad, position=position,
                                mask=data.draw(st.integers(1, 255),
                                               label="mask"))
        # The run that wrote the bad record did not finish it.
        os.remove(store.summary_path)
        if os.path.isfile(store.reducer_state_path):
            os.remove(store.reducer_state_path)

        # A restarted process: a fresh instance, no index.
        store = ArtifactStore(store.path)
        assert store.completed_chunks(validate=True) == list(range(bad))
        end = sum(store.chunk_log.extent(bad - 1))
        store.initialize(spec)
        assert os.path.getsize(store.chunk_log.path) == end
        resume_campaign(store, reducer=reducer, telemetry=True)
        assert _snapshot(ArtifactStore(store.path)) == _snapshot(reference)


def test_cut_anywhere_in_the_last_record_drops_only_it(tmp_path):
    """Every byte offset inside the last record: the validating scan
    drops that record alone, and ``initialize`` cuts the log back to
    the end of the one before it."""
    spec = make_toy_spec(num_samples=6, chunk_size=2)
    store = ArtifactStore(tmp_path / "store")
    run_campaign(spec, store=store, telemetry=False)
    with open(store.chunk_log.path, "rb") as handle:
        log = handle.read()
    start, length = store.chunk_log.extent(2)
    assert start + length == len(log)
    for cut in range(start, len(log)):
        with open(store.chunk_log.path, "wb") as handle:
            handle.write(log[:cut])
        fresh = ArtifactStore(store.path)
        assert fresh.completed_chunks() == [0, 1], cut
        assert fresh.completed_chunks(validate=True) == [0, 1], cut
        fresh.initialize(spec)
        assert os.path.getsize(store.chunk_log.path) == start, cut
