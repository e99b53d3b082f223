"""Resumable on-disk artifact store for campaign runs.

Layout of a store directory::

    <store>/
        manifest.json          # format version + full campaign spec
                               # (+ optional reducer/backend provenance)
        lock.json              # owner record while a runner holds the
                               # store (absent on idle stores)
        chunks.log             # append-only: one record per completed
                               # chunk (indices, parameters, outputs
                               # + its telemetry events, when captured)
        reducer_state.npz      # checkpointed reduction state (optional)
        quarantine.json        # chunks that exhausted their retries
                               # (absent on failure-free campaigns)
        summary.json           # written once the campaign completes
        telemetry/             # optional observability layer
            run.jsonl          # run-scoped events (append-only)
            metrics.json       # merged campaign MetricsRegistry
            progress.json      # latest heartbeat (atomically replaced)

Completed chunks are records of ``chunks.log`` (see :class:`ChunkLog`):
each is length-prefixed and CRC32-checked and goes out in one
``O_APPEND`` write, so a killed process leaves at most a torn *tail*.
Readers stop at the first invalid record, and ``initialize()`` truncates
the log there, under the store lock, before anything is appended: on
resume a chunk is either completely on record or recomputed.  A chunk's
telemetry events travel in its record, so a completed chunk always has
its telemetry.  Stores written before the log kept one
``chunks/chunk_NNNNNN.npz`` per chunk (and, earlier still, the events
in ``telemetry/chunk_*.jsonl``); those files stay readable, read-only,
so such stores still resume and report -- new chunks go to the log.

The other files are written atomically (temp file + ``os.replace``).  A
kill *between* ``mkstemp`` and ``os.replace`` can leak the anonymous
``.tmp`` file, so ``initialize()`` sweeps stale temporaries from the
store root, ``chunks/`` and ``telemetry/`` every time it runs (fresh
create and resume alike).  ``quarantine.json`` records chunks that
exhausted their retry budget -- one JSON entry per chunk with the sample
indices, the error and the attempt count.  The manifest pins the spec;
resuming with a different spec is refused instead of silently mixing
two campaigns in one directory.  ``reducer_state.npz`` snapshots the
reducer's running state after folded chunks, so a resume restores the
reduction itself rather than re-folding every chunk; stores without it
-- including every pre-reducer store -- simply re-fold, which is
bit-identical by construction.

Telemetry is strictly additive: ``run.jsonl`` is append-only across
resumes, and a store without any of it remains fully usable --
telemetry readers return empty results instead of raising.

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
import math
import os
import socket
import struct
import tempfile
import threading
import time
import zipfile
import zlib

import numpy as np

from ..errors import CampaignError
from ..telemetry import append_events, read_events, validate_events
from .spec import CampaignSpec

FORMAT_VERSION = 1
_CHUNK_LOG = "chunks.log"
_LEGACY_CHUNK_DIR = "chunks"
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


#: Fixed part of a chunk-log record: the magic and the CRC32 of the rest
#: of the record, then the chunk index, the header length and the
#: payload length (little-endian).
_RECORD_MAGIC = b"RCL1"
_RECORD_FRAME = struct.Struct("<4sI")
_RECORD_FIELDS = struct.Struct("<QQQ")
_RECORD_HEAD = _RECORD_FRAME.size + _RECORD_FIELDS.size
#: Header and arrays start on this byte boundary within a record.
_RECORD_ALIGN = 8


def _padding(size):
    return b"\0" * (-size % _RECORD_ALIGN)


class ChunkLog:
    """The append-only log of a store's completed chunks.

    One record per chunk: a 32-byte fixed part (magic, CRC32, chunk
    index, header and payload lengths), a compact JSON header, and the
    raw bytes of the chunk's arrays.  The header holds the chunk index,
    each array's name, dtype, shape and payload offset, and -- when
    captured -- the chunk's telemetry events as its ``telemetry``
    member.  The CRC covers everything after itself.  :meth:`append`
    writes a whole record with one ``os.write`` on an ``O_APPEND``
    descriptor: no temp file, no rename.

    The instance keeps an offset index of the records it has seen, so
    :meth:`read` is one positioned read.  Each append extends the index,
    and a scan only ever continues from where the last one stopped: a
    plain scan reads the fixed parts of the new records, a validating
    scan also checks the CRC of every record not yet checked.  A scan
    stops at the first invalid record (a torn tail, a flipped byte), so
    that record and every record after it are not on record;
    :meth:`recover` truncates them.  A log that shrank or was replaced
    since the last scan is indexed afresh.  An instance is not meant to
    be shared between threads.
    """

    def __init__(self, path):
        self.path = str(path)
        self._reset(None)

    def _reset(self, identity):
        self._identity = identity  # (st_dev, st_ino) of the indexed log
        # chunk -> (offset, header length, payload length); the first
        # record of a chunk wins.
        self._records = {}
        self._end = 0  # offset after the last indexed record
        self._checked = 0  # the CRC-checked prefix, <= ``_end``

    def _scan(self, validate):
        """Extend the index to the first invalid record or the end of
        the log; returns the log's size (0 when absent)."""
        try:
            descriptor = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            self._reset(None)
            return 0
        try:
            stat = os.fstat(descriptor)
            identity = (stat.st_dev, stat.st_ino)
            if identity != self._identity or stat.st_size < self._end:
                self._reset(identity)
            offset = self._checked if validate else self._end
            while True:
                fields = self._fields_at(descriptor, offset, stat.st_size,
                                         validate)
                if fields is None:
                    break
                chunk, header_length, payload_length = fields
                self._records.setdefault(
                    chunk, (offset, header_length, payload_length)
                )
                offset += _RECORD_HEAD + header_length + payload_length
        finally:
            os.close(descriptor)
        if offset < self._end:
            # The validating scan rejected a record the plain scan took.
            self._records = {
                chunk: extent for chunk, extent in self._records.items()
                if extent[0] < offset
            }
        self._end = offset
        if validate:
            self._checked = offset
        return stat.st_size

    @staticmethod
    def _fields_at(descriptor, offset, size, validate):
        """``(chunk, header length, payload length)`` of the record at
        ``offset``, or ``None`` when no valid record starts there."""
        if offset + _RECORD_HEAD > size:
            return None
        head = os.pread(descriptor, _RECORD_HEAD, offset)
        if len(head) < _RECORD_HEAD:  # truncated under the scan
            return None
        magic, checksum = _RECORD_FRAME.unpack_from(head)
        fields = _RECORD_FIELDS.unpack_from(head, _RECORD_FRAME.size)
        length = _RECORD_HEAD + fields[1] + fields[2]
        if magic != _RECORD_MAGIC or offset + length > size:
            return None
        if validate:
            record = os.pread(descriptor, length, offset)
            if (len(record) != length or zlib.crc32(
                    memoryview(record)[_RECORD_FRAME.size:]) != checksum):
                return None
        return fields

    def _extent(self, chunk_index):
        chunk_index = int(chunk_index)
        if chunk_index not in self._records:
            self._scan(validate=False)
        return self._records.get(chunk_index)

    def chunks(self, validate=False):
        """Sorted indices of the chunks on record (``validate`` checks
        every record's CRC once per instance)."""
        self._scan(validate)
        return sorted(self._records)

    def extent(self, chunk_index):
        """``(offset, length)`` of a chunk's record, or ``None``."""
        extent = self._extent(chunk_index)
        if extent is None:
            return None
        offset, header_length, payload_length = extent
        return offset, _RECORD_HEAD + header_length + payload_length

    def append(self, chunk_index, arrays, telemetry=None):
        """Append one chunk's record; returns the log's path.

        ``arrays`` maps names to numpy arrays; ``telemetry`` (optional)
        is a JSON-serializable event list.
        """
        chunk_index = int(chunk_index)
        layout, parts, payload_length = [], [], 0
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            layout.append([name, array.dtype.str, list(array.shape),
                           payload_length])
            padding = _padding(array.nbytes)
            parts += [array, padding]
            payload_length += array.nbytes + len(padding)
        header = {"chunk": chunk_index, "arrays": layout}
        if telemetry is not None:
            header[_TELEMETRY_MEMBER] = telemetry
        text = json.dumps(header, separators=(",", ":")).encode("utf-8")
        text += b" " * (-len(text) % _RECORD_ALIGN)
        body = b"".join([
            _RECORD_FIELDS.pack(chunk_index, len(text), payload_length),
            text, *parts,
        ])
        record = _RECORD_FRAME.pack(_RECORD_MAGIC, zlib.crc32(body)) + body
        descriptor = os.open(self.path,
                             os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            written = os.write(descriptor, record)
            end = os.lseek(descriptor, 0, os.SEEK_CUR)
            stat = os.fstat(descriptor)
        finally:
            os.close(descriptor)
        if written != len(record):
            raise CampaignError(
                f"short write of chunk {chunk_index} to {self.path!r} "
                f"({written} of {len(record)} bytes); resume truncates "
                "the torn record"
            )
        identity = (stat.st_dev, stat.st_ino)
        if identity != self._identity:
            self._reset(identity)
        start = end - len(record)
        if start == self._end:  # nothing unseen was appended before it
            self._records.setdefault(
                chunk_index, (start, len(text), payload_length)
            )
            if self._checked == start:
                self._checked = end
            self._end = end
        return self.path

    def read(self, chunk_index):
        """``{name: array}`` of a chunk's record, or ``None`` when the
        chunk is not on record.

        One positioned read of the whole record; a record whose CRC
        does not match raises :class:`CampaignError`.  The arrays are
        writable views of one buffer.
        """
        extent = self._extent(chunk_index)
        if extent is None:
            return None
        offset, header_length, payload_length = extent
        buffer = bytearray(_RECORD_HEAD + header_length + payload_length)
        try:
            descriptor = os.open(self.path, os.O_RDONLY)
            try:
                count = os.preadv(descriptor, [buffer], offset)
            finally:
                os.close(descriptor)
        except OSError as exc:
            raise CampaignError(
                f"cannot read chunk {chunk_index} from {self.path!r} "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        view = memoryview(buffer)
        magic, checksum = _RECORD_FRAME.unpack_from(buffer)
        if (count != len(buffer) or magic != _RECORD_MAGIC
                or zlib.crc32(view[_RECORD_FRAME.size:]) != checksum):
            raise CampaignError(
                f"chunk {chunk_index} in {self.path!r} is corrupt or "
                "truncated (checksum mismatch); resume to recompute it"
            )
        header = json.loads(bytes(view[_RECORD_HEAD:_RECORD_HEAD
                                       + header_length]))
        start = _RECORD_HEAD + header_length
        return {
            name: np.frombuffer(
                buffer, dtype=np.dtype(dtype), count=math.prod(shape),
                offset=start + position,
            ).reshape(shape)
            for name, dtype, shape, position in header["arrays"]
        }

    def telemetry(self, chunk_index):
        """A chunk's telemetry events from its record header, or ``None``
        (not on record, recorded without events, or unreadable)."""
        extent = self._extent(chunk_index)
        if extent is None:
            return None
        offset, header_length, _ = extent
        try:
            descriptor = os.open(self.path, os.O_RDONLY)
            try:
                text = os.pread(descriptor, header_length,
                                offset + _RECORD_HEAD)
            finally:
                os.close(descriptor)
            return json.loads(text).get(_TELEMETRY_MEMBER)
        except (OSError, ValueError, AttributeError):
            return None

    def recover(self):
        """Check every record's CRC again and truncate the log after the
        last valid one: a torn tail, or everything from a corrupt record
        on."""
        self._checked = 0
        if self._scan(validate=True) > self._end:
            os.truncate(self.path, self._end)


class ArtifactStore:
    """Checkpoint directory of one campaign (create with ``initialize``)."""

    def __init__(self, path):
        self.path = str(path)
        self.chunk_log = ChunkLog(os.path.join(self.path, _CHUNK_LOG))

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self):
        return os.path.join(self.path, "manifest.json")

    @property
    def summary_path(self):
        return os.path.join(self.path, "summary.json")

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
            self.chunk_log.recover()
            return self
        self._make_directories()
        self.sweep_temporaries()
        self.chunk_log.recover()
        manifest = {
            "format_version": FORMAT_VERSION,
            "campaign": spec.to_dict(),
        }
        if provenance:
            manifest["provenance"] = dict(provenance)
        self._write_json(self.manifest_path, manifest)
        return self

    def _make_directories(self):
        # Once per initialize: the telemetry writers assume it exists.
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
        for directory in (self.path, self._legacy_chunk_dir,
                          self.telemetry_dir):
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
    @property
    def _legacy_chunk_dir(self):
        # Stores written before the chunk log kept one ``.npz`` per chunk
        # here; read-only now.
        return os.path.join(self.path, _LEGACY_CHUNK_DIR)

    def _legacy_chunk_path(self, chunk_index):
        return os.path.join(
            self._legacy_chunk_dir, f"chunk_{int(chunk_index):06d}.npz"
        )

    def _legacy_chunks(self, validate):
        """Indices of the legacy ``.npz`` chunk files (with ``validate``:
        those whose zip directory parses and holds the three arrays)."""
        try:
            names = os.listdir(self._legacy_chunk_dir)
        except OSError:
            return set()
        indices = set()
        for name in names:
            if name.startswith("chunk_") and name.endswith(".npz"):
                try:
                    index = int(name[len("chunk_"):-len(".npz")])
                except ValueError:
                    continue
                if not validate or {
                        "indices.npy", "parameters.npy", "outputs.npy",
                } <= self._legacy_members(index):
                    indices.add(index)
        return indices

    def _legacy_members(self, chunk_index):
        try:
            with zipfile.ZipFile(self._legacy_chunk_path(chunk_index)) \
                    as archive:
                return set(archive.namelist())
        except (OSError, ValueError, zipfile.BadZipFile):
            return set()

    def completed_chunks(self, validate=False):
        """Sorted indices of every completed chunk.

        The default reads the fixed part of each log record the
        instance has not seen yet -- never the arrays -- and stops at
        the first record that does not frame.  With ``validate=True``
        every record's CRC is checked as well (once per instance), so a
        record torn by a full disk or flipped on the medium is dropped
        together with every record after it, and resume recomputes
        those chunks instead of crashing on the corrupt bytes later.
        Legacy ``chunks/*.npz`` files count too (``validate`` checks
        that their zip directory parses and holds the three arrays).
        """
        chunks = set(self.chunk_log.chunks(validate))
        chunks |= self._legacy_chunks(validate)
        return sorted(chunks)

    def write_chunk(self, result, events=None):
        """Append one :class:`~repro.campaign.executor.ChunkResult` to
        the chunk log; returns the log's path.

        ``events`` (optional) is the chunk's telemetry event list; it is
        validated and stored in the same record, so one write publishes
        the outputs and their telemetry together.
        """
        if events is not None:
            events = list(events)
            validate_events(events)
        return self.chunk_log.append(
            result.chunk_index,
            {
                "indices": result.indices,
                "parameters": result.parameters,
                "outputs": result.outputs,
            },
            telemetry=events,
        )

    def read_chunk(self, chunk_index):
        """``(indices, parameters, outputs)`` arrays of one chunk.

        A chunk that is on record but cannot be read (checksum mismatch,
        torn legacy archive, missing arrays) raises
        :class:`CampaignError` -- never a bare ``zipfile.BadZipFile`` --
        so callers can uniformly treat unreadable as recomputable.
        """
        arrays = self.chunk_log.read(chunk_index)
        if arrays is not None:
            return arrays["indices"], arrays["parameters"], arrays["outputs"]
        path = self._legacy_chunk_path(chunk_index)
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
        Written to a temp file and published by ``os.replace``: a
        killed process leaves either the previous snapshot or the new
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
        than fatal: the chunk log remains the source of truth.
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

    def telemetry_chunks(self):
        """Sorted indices of every chunk with persisted telemetry: log
        records with a ``telemetry`` member, plus the legacy ``.npz``
        members and ``telemetry/chunk_*.jsonl`` files."""
        indices = {
            index for index in self.chunk_log.chunks()
            if self.chunk_log.telemetry(index) is not None
        }
        indices |= {
            index for index in self._legacy_chunks(validate=False)
            if f"{_TELEMETRY_MEMBER}.npy" in self._legacy_members(index)
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

        Reads the ``telemetry`` member of the chunk's log record header;
        chunks without one fall back to a legacy ``.npz`` member, then
        to the legacy ``telemetry/chunk_*.jsonl`` file.  An unreadable
        record or file counts as having no member.
        """
        events = self.chunk_log.telemetry(chunk_index)
        if events is not None:
            return events
        path = self._legacy_chunk_path(chunk_index)
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
