"""Resumable on-disk artifact store for campaign runs.

Layout of a store directory::

    <store>/
        manifest.json          # format version + full campaign spec
                               # (+ optional reducer/backend provenance)
        lock.json              # owner record while a runner holds the
                               # store (absent on idle stores)
        chunks/
            chunk_000000.npz   # indices, parameters, outputs of chunk 0
            chunk_000001.npz   # (+ its telemetry events, when captured)
            ...
        reducer_state.npz      # checkpointed reduction state (optional)
        quarantine.json        # chunks that exhausted their retries
                               # (absent on failure-free campaigns)
        summary.json           # written once the campaign completes
        telemetry/             # optional observability layer
            run.jsonl          # run-scoped events (append-only)
            metrics.json       # merged campaign MetricsRegistry
            progress.json      # latest heartbeat (atomically replaced)

Chunk files are written atomically (temp file + ``os.replace``), so a
killed process can never leave a half-written chunk behind: on resume a
chunk either exists completely or is recomputed.  A kill *between*
``mkstemp`` and ``os.replace`` can still leak the anonymous ``.tmp``
file, so ``initialize()`` sweeps stale temporaries from the store root,
``chunks/`` and ``telemetry/`` every time it runs (fresh create and
resume alike).  ``quarantine.json`` records chunks that exhausted their
retry budget -- one JSON entry per chunk with the sample indices, the
error and the attempt count -- updated with the same atomic-replace
discipline so concurrent readers never see a torn file.  The manifest pins the
spec; resuming with a different spec is refused instead of silently
mixing two campaigns in one directory.  ``reducer_state.npz`` snapshots
the reducer's running state after every folded chunk (same atomic write
discipline), so a resume restores the reduction itself rather than
re-folding every chunk; stores without it -- including every pre-reducer
store -- simply re-fold, which is bit-identical by construction.

Telemetry is strictly additive and follows the same crash discipline:
a chunk's events travel inside its ``.npz`` as the optional
``telemetry`` member (compact JSON bytes), so one atomic write publishes
the outputs and their telemetry together and a completed chunk always
has its telemetry.  ``run.jsonl`` is append-only across resumes, and a
store without any of it remains fully usable -- telemetry readers
return empty results instead of raising.  Stores written before the
member existed kept each chunk's events in ``telemetry/chunk_*.jsonl``;
the readers fall back to those files (read-only), so such stores still
resume and report.

``lock.json`` serializes *ownership*: a runner acquires the store lock
(:class:`StoreLock`, ``O_CREAT | O_EXCL``) before touching the
directory and heartbeats it per completed chunk, so two concurrent
``run_campaign`` calls on one path fail fast with a
:class:`~repro.errors.CampaignError` instead of silently interleaving
chunk writes.  A lock left by a killed runner is detected as stale (its
pid is dead on this host, or its heartbeat mtime is older than the
stale threshold for foreign hosts) and broken on the next acquire, so
crash recovery needs no manual cleanup.
"""

import json
import os
import socket
import tempfile
import threading
import time
import zipfile

import numpy as np

from ..errors import CampaignError
from ..telemetry import append_events, read_events, validate_events
from .spec import CampaignSpec

FORMAT_VERSION = 1
_CHUNK_DIR = "chunks"
_TELEMETRY_MEMBER = "telemetry"
_REDUCER_STATE = "reducer_state.npz"
_STATE_META_KEY = "__meta__"
_TELEMETRY_DIR = "telemetry"
_LOCK_NAME = "lock.json"
_PROGRESS_NAME = "progress.json"

#: Absolute lock-file paths held by this process (threads of one
#: process share a pid, so the file protocol alone cannot arbitrate
#: between them -- this registry does).
_HELD_LOCKS = set()
_HELD_LOCKS_GUARD = threading.Lock()


def _pid_alive(pid):
    """Whether ``pid`` names a live process on this host."""
    try:
        os.kill(int(pid), 0)
    except (ProcessLookupError, ValueError, TypeError, OverflowError):
        return False
    except PermissionError:
        return True  # alive, owned by someone else
    return True


class StoreLock:
    """Exclusive ownership of one store directory via ``lock.json``.

    The lock file is created with ``O_CREAT | O_EXCL`` (atomic on every
    POSIX filesystem) and holds the owner's pid/host/thread plus its
    creation wall clock; the file's *mtime* is the heartbeat, refreshed
    by :meth:`heartbeat` (the runner beats once per completed chunk).
    A second acquire attempt fails with a :class:`CampaignError` naming
    the live owner.  Stale locks -- a dead pid on this host, or (for
    locks from another host, where pids are meaningless) a heartbeat
    older than ``stale_after_s`` -- are broken and re-acquired, so a
    SIGKILLed runner never wedges its store.

    Threads of one process share a pid, so same-process contention is
    arbitrated by an in-process registry of held lock paths on top of
    the file protocol.
    """

    def __init__(self, path, stale_after_s=300.0):
        self.path = os.path.abspath(str(path))
        self.stale_after_s = float(stale_after_s)
        self._acquired = False

    @property
    def held(self):
        """Whether *this* lock object currently owns the file."""
        return self._acquired

    def owner(self):
        """The current lock file's owner record, or ``None``.

        ``None`` means the file is absent *or* unreadable (a torn write
        by a dying owner); callers distinguish via ``os.path.exists``.
        """
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def _is_stale(self, info):
        """Whether the existing lock can safely be broken."""
        try:
            age = time.time() - os.path.getmtime(self.path)
        except OSError:
            return True  # vanished under us: retry the acquire
        if info is None:
            # Unreadable owner record: only a torn write of a dying
            # process leaves one.  Give the writer a grace period, then
            # treat it as dead.
            return age > max(5.0, self.stale_after_s)
        if info.get("host") == socket.gethostname():
            return not _pid_alive(info.get("pid"))
        return age > self.stale_after_s

    def acquire(self):
        """Take the lock or raise :class:`CampaignError` (never blocks)."""
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with _HELD_LOCKS_GUARD:
            held_here = self.path in _HELD_LOCKS
        for attempt in (0, 1):
            if held_here:
                break
            try:
                descriptor = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                info = self.owner()
                if attempt == 0 and self._is_stale(info):
                    try:
                        os.remove(self.path)
                    except FileNotFoundError:
                        pass
                    continue
                break
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "pid": os.getpid(),
                        "host": socket.gethostname(),
                        "thread": threading.current_thread().name,
                        "created_walltime": time.time(),
                    },
                    handle,
                )
            with _HELD_LOCKS_GUARD:
                _HELD_LOCKS.add(self.path)
            self._acquired = True
            return self
        info = self.owner() or {}
        owner = (
            f"pid {info.get('pid', '?')} on {info.get('host', '?')} "
            f"(thread {info.get('thread', '?')})"
        )
        raise CampaignError(
            f"store {os.path.dirname(self.path)!r} is locked by {owner}; "
            "a campaign is already running there -- wait for it, or "
            "remove the stale lock.json if you are certain it is dead"
        )

    def heartbeat(self):
        """Refresh the lock's mtime (the liveness signal for foreign
        hosts); a no-op when the lock is not held."""
        if not self._acquired:
            return
        try:
            os.utime(self.path)
        except OSError:
            pass

    def release(self):
        """Drop the lock (idempotent; removing the file is best-effort)."""
        if not self._acquired:
            return
        self._acquired = False
        with _HELD_LOCKS_GUARD:
            _HELD_LOCKS.discard(self.path)
        try:
            os.remove(self.path)
        except OSError:
            pass

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info):
        self.release()

    def __repr__(self):
        state = "held" if self._acquired else "free"
        return f"StoreLock({self.path!r}, {state})"


class ArtifactStore:
    """Checkpoint directory of one campaign (create with ``initialize``)."""

    def __init__(self, path):
        self.path = str(path)

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self):
        return os.path.join(self.path, "manifest.json")

    @property
    def summary_path(self):
        return os.path.join(self.path, "summary.json")

    @property
    def chunk_dir(self):
        return os.path.join(self.path, _CHUNK_DIR)

    def exists(self):
        """Whether this directory holds an initialized store."""
        return os.path.isfile(self.manifest_path)

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------
    @property
    def lock_path(self):
        return os.path.join(self.path, _LOCK_NAME)

    def acquire_lock(self, stale_after_s=300.0):
        """Take exclusive ownership of this store (see :class:`StoreLock`).

        Raises :class:`CampaignError` when another live runner holds the
        store; breaks and re-acquires stale locks.  The caller must
        ``release()`` (or use the returned lock as a context manager).
        """
        return StoreLock(self.lock_path, stale_after_s=stale_after_s).acquire()

    def lock_owner(self):
        """The owner record of the current lock file, or ``None`` when
        the store is unlocked (or the record is unreadable)."""
        return StoreLock(self.lock_path).owner()

    def _locked_by_other(self):
        """Whether a *live* lock held outside this process (or by another
        thread of it) protects the store."""
        lock = StoreLock(self.lock_path)
        if not os.path.exists(lock.path):
            return False
        with _HELD_LOCKS_GUARD:
            if lock.path in _HELD_LOCKS:
                return False  # our own lock
        return not lock._is_stale(lock.owner())

    def initialize(self, spec, provenance=None):
        """Create the store for ``spec`` or validate an existing one.

        A fresh directory gets a manifest; an existing store is accepted
        only when its pinned spec matches exactly (the resume contract
        -- the optional ``provenance`` record is informational and never
        part of that comparison).  ``provenance`` is a JSON dict naming
        the package version and the reducer/backend of the creating run;
        it is recorded once at creation time and surfaced by
        ``repro-campaign report``.  Returns ``self`` for chaining.
        """
        if not isinstance(spec, CampaignSpec):
            raise CampaignError(
                f"expected a CampaignSpec, got {type(spec).__name__}"
            )
        if self.exists():
            stored = self.load_spec()
            if stored.to_dict() != spec.to_dict():
                raise CampaignError(
                    f"store at {self.path!r} holds campaign "
                    f"{stored.name!r} with a different spec; refusing to "
                    "mix campaigns (use a fresh directory)"
                )
            self._make_directories()
            self.sweep_temporaries()
            return self
        self._make_directories()
        self.sweep_temporaries()
        manifest = {
            "format_version": FORMAT_VERSION,
            "campaign": spec.to_dict(),
        }
        if provenance:
            manifest["provenance"] = dict(provenance)
        self._write_json(self.manifest_path, manifest)
        return self

    def _make_directories(self):
        # Once per initialize: the chunk and telemetry writers assume
        # both directories exist.
        os.makedirs(self.chunk_dir, exist_ok=True)
        os.makedirs(self.telemetry_dir, exist_ok=True)

    def sweep_temporaries(self):
        """Remove stale ``*.tmp`` files leaked by killed writers.

        Every atomic write goes through ``tempfile.mkstemp`` +
        ``os.replace``; a process killed between the two leaves an
        orphaned temp file that no later run will ever touch.  Sweeping
        is safe against *concurrent* writers only at initialize/resume
        time (when no other run should be writing this store), which is
        exactly when this runs -- so it refuses outright when a live
        lock held by someone else protects the store.  Returns the
        removed paths.
        """
        if self._locked_by_other():
            owner = self.lock_owner() or {}
            raise CampaignError(
                f"refusing to sweep store {self.path!r}: it is locked by "
                f"pid {owner.get('pid', '?')} on {owner.get('host', '?')} "
                "(a campaign is running there)"
            )
        removed = []
        for directory in (self.path, self.chunk_dir, self.telemetry_dir):
            if not os.path.isdir(directory):
                continue
            for name in os.listdir(directory):
                if not name.endswith(".tmp"):
                    continue
                path = os.path.join(directory, name)
                if not os.path.isfile(path):
                    continue
                try:
                    os.remove(path)
                except OSError:
                    continue
                removed.append(path)
        return removed

    def read_provenance(self):
        """The manifest's provenance record (``None`` for stores created
        before it existed, or without one)."""
        manifest = self._read_json(self.manifest_path)
        provenance = manifest.get("provenance")
        return dict(provenance) if provenance else None

    def load_spec(self):
        """The campaign spec pinned in the manifest."""
        manifest = self._read_json(self.manifest_path)
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise CampaignError(
                f"store format version {version!r} is not supported "
                f"(expected {FORMAT_VERSION})"
            )
        return CampaignSpec.from_dict(manifest["campaign"])

    # ------------------------------------------------------------------
    # Chunks
    # ------------------------------------------------------------------
    def chunk_path(self, chunk_index):
        return os.path.join(
            self.chunk_dir, f"chunk_{int(chunk_index):06d}.npz"
        )

    def completed_chunks(self, validate=False):
        """Sorted indices of every fully written chunk.

        The default is a name-based scan (cheap, and atomic writes make
        a present file a complete file in normal operation).  With
        ``validate=True`` every chunk file gets a structural check --
        the zip central directory parses and the three expected arrays
        are present -- so files truncated by a full disk or torn by a
        partial copy are dropped from the result and resume recomputes
        them instead of crashing on the corrupt bytes later.  The check
        reads only the archive directory, not the array data, so it
        stays cheap next to the reducer-snapshot fast path.
        """
        if not os.path.isdir(self.chunk_dir):
            return []
        indices = []
        for name in os.listdir(self.chunk_dir):
            if name.startswith("chunk_") and name.endswith(".npz"):
                try:
                    indices.append(int(name[len("chunk_"):-len(".npz")]))
                except ValueError:
                    continue
        indices.sort()
        if not validate:
            return indices
        return [index for index in indices
                if self._chunk_intact(self.chunk_path(index))]

    @staticmethod
    def _chunk_intact(path):
        """Structural validity of one chunk ``.npz`` (directory parses,
        expected members present) without loading the arrays."""
        try:
            with zipfile.ZipFile(path) as archive:
                names = set(archive.namelist())
        except (OSError, ValueError, zipfile.BadZipFile):
            return False
        return {"indices.npy", "parameters.npy", "outputs.npy"} <= names

    def write_chunk(self, result, events=None):
        """Persist one :class:`~repro.campaign.executor.ChunkResult`.

        ``events`` (optional) is the chunk's telemetry event list; it is
        validated and stored in the same file as the ``telemetry``
        member (compact JSON bytes).  Atomic: the chunk file appears
        only once completely written, outputs and telemetry together.
        The store must be initialized (``initialize`` creates
        ``chunks/``).
        """
        arrays = {
            "indices": result.indices,
            "parameters": result.parameters,
            "outputs": result.outputs,
        }
        if events is not None:
            events = list(events)
            validate_events(events)
            arrays[_TELEMETRY_MEMBER] = np.frombuffer(
                json.dumps(events, separators=(",", ":")).encode("utf-8"),
                dtype=np.uint8,
            )
        path = self.chunk_path(result.chunk_index)
        # Unique temp name: concurrent writers (two resumes of the same
        # store) each publish a complete file via their own rename.
        descriptor, temporary = tempfile.mkstemp(
            dir=self.chunk_dir,
            prefix=f"chunk_{result.chunk_index:06d}.",
            suffix=".tmp",
        )
        with os.fdopen(descriptor, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(temporary, path)
        return path

    def read_chunk(self, chunk_index):
        """``(indices, parameters, outputs)`` arrays of one chunk.

        A chunk file that exists but cannot be read (truncated archive,
        torn copy, missing arrays) raises :class:`CampaignError` naming
        the file -- never a bare ``zipfile.BadZipFile`` -- so callers
        can uniformly treat unreadable as recomputable.
        """
        path = self.chunk_path(chunk_index)
        if not os.path.isfile(path):
            raise CampaignError(
                f"chunk {chunk_index} is not present in {self.path!r}"
            )
        try:
            with np.load(path) as data:
                return (
                    data["indices"].copy(),
                    data["parameters"].copy(),
                    data["outputs"].copy(),
                )
        except (OSError, ValueError, KeyError, EOFError,
                zipfile.BadZipFile) as exc:
            raise CampaignError(
                f"chunk file {path!r} is corrupt or truncated "
                f"({type(exc).__name__}: {exc}); delete it or resume to "
                "recompute the chunk"
            ) from exc

    # ------------------------------------------------------------------
    # Reducer state
    # ------------------------------------------------------------------
    @property
    def reducer_state_path(self):
        return os.path.join(self.path, _REDUCER_STATE)

    def write_reducer_state(self, meta, arrays):
        """Atomically checkpoint one reduction snapshot.

        ``meta`` is a small JSON dict identifying the reduction (reducer
        config, chunk progress); ``arrays`` maps names to numpy arrays
        (the reducer's ``state_dict`` plus the runner's bookkeeping).
        The same temp-file + ``os.replace`` discipline as chunk writes:
        a killed process leaves either the previous snapshot or the new
        one, never a torn file.
        """
        descriptor, temporary = tempfile.mkstemp(
            dir=self.path, prefix="reducer_state.", suffix=".tmp"
        )
        with os.fdopen(descriptor, "wb") as handle:
            np.savez(
                handle,
                **{_STATE_META_KEY: np.frombuffer(
                    json.dumps(meta, sort_keys=True).encode("utf-8"),
                    dtype=np.uint8,
                )},
                **arrays,
            )
        os.replace(temporary, self.reducer_state_path)
        return self.reducer_state_path

    def read_reducer_state(self):
        """``(meta, arrays)`` of the checkpointed reduction, or ``None``.

        Returns ``None`` for stores without a snapshot (every store is
        readable without one -- the runner then re-folds the chunks) and
        for unreadable snapshots, which are treated as absent rather
        than fatal: the chunk files remain the source of truth.
        """
        if not os.path.isfile(self.reducer_state_path):
            return None
        try:
            with np.load(self.reducer_state_path) as data:
                meta = json.loads(
                    bytes(data[_STATE_META_KEY]).decode("utf-8")
                )
                arrays = {
                    name: data[name].copy()
                    for name in data.files
                    if name != _STATE_META_KEY
                }
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            return None
        return meta, arrays

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    @property
    def quarantine_path(self):
        return os.path.join(self.path, "quarantine.json")

    def read_quarantine(self):
        """``{chunk_index: record}`` of quarantined chunks (``{}`` when
        the campaign never quarantined anything)."""
        if not os.path.isfile(self.quarantine_path):
            return {}
        payload = self._read_json(self.quarantine_path)
        chunks = payload.get("chunks", {})
        return {int(index): dict(record)
                for index, record in chunks.items()}

    def quarantine_chunk(self, chunk_index, record):
        """Append one chunk's failure record to ``quarantine.json``.

        Read-modify-replace under the atomic ``_write_json`` discipline:
        each append publishes a complete file, so a kill mid-campaign
        leaves every previously quarantined chunk on record.
        """
        chunks = self.read_quarantine()
        chunks[int(chunk_index)] = dict(record)
        self._write_json(self.quarantine_path, {
            "chunks": {
                str(index): chunks[index] for index in sorted(chunks)
            },
        })
        return self.quarantine_path

    def discard_quarantined(self, chunk_indices):
        """Drop chunks from the quarantine (they succeeded on a retry).

        Removes ``quarantine.json`` entirely once empty, so a fully
        healed store is indistinguishable from a failure-free one.
        """
        chunks = self.read_quarantine()
        for chunk_index in chunk_indices:
            chunks.pop(int(chunk_index), None)
        if chunks:
            self._write_json(self.quarantine_path, {
                "chunks": {
                    str(index): chunks[index] for index in sorted(chunks)
                },
            })
        elif os.path.isfile(self.quarantine_path):
            os.remove(self.quarantine_path)
        return self.quarantine_path

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @property
    def telemetry_dir(self):
        return os.path.join(self.path, _TELEMETRY_DIR)

    @property
    def run_log_path(self):
        """The append-only run-scoped event log (``telemetry/run.jsonl``)."""
        return os.path.join(self.telemetry_dir, "run.jsonl")

    @property
    def telemetry_metrics_path(self):
        return os.path.join(self.telemetry_dir, "metrics.json")

    def _legacy_telemetry_path(self, chunk_index):
        # Stores written before chunk files carried a ``telemetry``
        # member kept each chunk's events here; read-only now.
        return os.path.join(
            self.telemetry_dir, f"chunk_{int(chunk_index):06d}.jsonl"
        )

    def _chunk_has_telemetry(self, chunk_index):
        try:
            with zipfile.ZipFile(self.chunk_path(chunk_index)) as archive:
                return f"{_TELEMETRY_MEMBER}.npy" in archive.namelist()
        except (OSError, ValueError, zipfile.BadZipFile):
            return False

    def telemetry_chunks(self):
        """Sorted indices of every chunk with persisted telemetry: chunk
        files with a ``telemetry`` member, plus legacy
        ``telemetry/chunk_*.jsonl`` files."""
        indices = {
            index for index in self.completed_chunks()
            if self._chunk_has_telemetry(index)
        }
        if os.path.isdir(self.telemetry_dir):
            for name in os.listdir(self.telemetry_dir):
                if name.startswith("chunk_") and name.endswith(".jsonl"):
                    try:
                        indices.add(int(name[len("chunk_"):-len(".jsonl")]))
                    except ValueError:
                        continue
        return sorted(indices)

    def read_chunk_telemetry(self, chunk_index):
        """One chunk's telemetry events (``[]`` when never captured).

        Reads the chunk file's ``telemetry`` member; chunks without one
        fall back to the legacy ``telemetry/chunk_*.jsonl`` file.  An
        unreadable chunk file counts as having no member.
        """
        path = self.chunk_path(chunk_index)
        if os.path.isfile(path):
            try:
                with np.load(path) as data:
                    if _TELEMETRY_MEMBER in data.files:
                        return json.loads(
                            data[_TELEMETRY_MEMBER].tobytes()
                        )
            except (OSError, ValueError, KeyError, EOFError,
                    zipfile.BadZipFile):
                pass
        legacy = self._legacy_telemetry_path(chunk_index)
        if not os.path.isfile(legacy):
            return []
        return read_events(legacy)

    def append_run_events(self, events):
        """Append run-scoped events to ``telemetry/run.jsonl``."""
        return append_events(self.run_log_path, events)

    def read_run_events(self):
        """All run-scoped events (``[]`` for stores without telemetry)."""
        if not os.path.isfile(self.run_log_path):
            return []
        return read_events(self.run_log_path)

    def write_telemetry_metrics(self, metrics):
        """Persist the merged campaign metrics (``as_dict`` payload)."""
        self._write_json(self.telemetry_metrics_path, metrics)
        return self.telemetry_metrics_path

    def read_telemetry_metrics(self):
        """The merged campaign metrics dict, or ``None``."""
        if not os.path.isfile(self.telemetry_metrics_path):
            return None
        return self._read_json(self.telemetry_metrics_path)

    @property
    def progress_path(self):
        return os.path.join(self.telemetry_dir, _PROGRESS_NAME)

    def write_progress(self, progress):
        """Atomically replace ``telemetry/progress.json``.

        ``progress`` is the latest heartbeat snapshot (done/total/rate);
        status readers in other processes poll this single small file
        instead of tailing ``run.jsonl``.
        """
        self._write_json(self.progress_path, progress)
        return self.progress_path

    def read_progress(self):
        """The latest progress snapshot, or ``None``.

        Tolerates a missing or torn file (a reader can race the atomic
        replace only across filesystems that lack atomic rename, and a
        store may simply predate progress tracking).
        """
        try:
            return self._read_json(self.progress_path)
        except CampaignError:
            return None

    def read_telemetry(self):
        """Everything the telemetry layer persisted, in chunk order.

        Returns ``{"chunks": {index: events}, "run": events,
        "metrics": dict-or-None}``; all parts empty/None for stores
        without telemetry, so report code can degrade gracefully.
        """
        return {
            "chunks": {
                index: self.read_chunk_telemetry(index)
                for index in self.telemetry_chunks()
            },
            "run": self.read_run_events(),
            "metrics": self.read_telemetry_metrics(),
        }

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def write_summary(self, summary):
        """Persist the final campaign summary (JSON dict)."""
        self._write_json(self.summary_path, summary)
        return self.summary_path

    def read_summary(self):
        """The persisted summary (raises if the campaign never finished)."""
        if not os.path.isfile(self.summary_path):
            raise CampaignError(
                f"no summary in {self.path!r}; the campaign has not "
                "completed (use 'resume' to finish it)"
            )
        return self._read_json(self.summary_path)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _write_json(path, payload, prefix="tmp"):
        # Compact ``json.dumps`` runs the C encoder; ``indent=`` would
        # fall back to the pure-Python one.  Readers accept either form.
        text = json.dumps(payload, sort_keys=True)
        directory = os.path.dirname(path)
        try:
            descriptor, temporary = tempfile.mkstemp(
                dir=directory, prefix=prefix, suffix=".tmp"
            )
        except FileNotFoundError:
            # Create the directory only when missing: the store's own
            # directories already exist after ``initialize``.
            os.makedirs(directory, exist_ok=True)
            descriptor, temporary = tempfile.mkstemp(
                dir=directory, prefix=prefix, suffix=".tmp"
            )
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
        os.replace(temporary, path)

    @staticmethod
    def _read_json(path):
        if not os.path.isfile(path):
            raise CampaignError(f"missing store file {path!r}")
        with open(path, "r", encoding="utf-8") as handle:
            try:
                return json.load(handle)
            except json.JSONDecodeError as exc:
                raise CampaignError(
                    f"corrupt store file {path!r}: {exc}"
                ) from exc

    def __repr__(self):
        state = "initialized" if self.exists() else "empty"
        return f"ArtifactStore({self.path!r}, {state})"
