"""Persistent job queue: records, lifecycle states, crash-safe storage.

A job is one submitted campaign spec plus its lifecycle bookkeeping.
The state machine is deliberately small (see DESIGN.md "Service
layer")::

    queued --> running --> completed
       |          |
       |          +------> failed
       +--> cancelled      (running jobs recover to queued on restart)

The queue persists every submission and transition atomically to
``queue.json`` under the service root (same temp-file + ``os.replace``
discipline as the artifact store), so a killed service loses at most
the in-memory view -- on restart, :meth:`JobQueue.recover_running`
moves jobs that were ``running`` at kill time back to ``queued``
(incrementing their ``resumes`` counter) and the manager resumes them
through the normal ``resume_campaign`` path from their store
checkpoints.

Job ids are ``job-<serial>-<spec-hash-prefix>``: the monotone serial
gives submission order, the spec-hash prefix links the id to *what*
was submitted (full hash in the record and the store's ``job.json``).
"""

import hashlib
import json
import os
import threading
import time

from ..campaign.spec import CampaignSpec
from ..campaign.store import ArtifactStore
from ..errors import ServiceError
from .namespace import DEFAULT_TENANT, validate_name

#: Lifecycle states a job record can be in.
STATES = ("queued", "running", "completed", "failed", "cancelled")

#: States in which a job will never run again.
TERMINAL_STATES = ("completed", "failed", "cancelled")

_QUEUE_NAME = "queue.json"
_QUEUE_FORMAT = 1


def spec_hash(spec):
    """Content hash of a campaign spec (sha256 of its canonical JSON).

    The canonical form is ``CampaignSpec.to_dict`` serialized with
    sorted keys, so two submissions of semantically identical specs
    hash identically regardless of field order in the submitted JSON.
    """
    if isinstance(spec, CampaignSpec):
        spec = spec.to_dict()
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class JobRecord:
    """One job's full persistent state (a plain mutable record)."""

    def __init__(self, job_id, tenant, spec, spec_hash, state="queued",
                 options=None, store=None, error=None, resumes=0,
                 submitted_walltime=None, started_walltime=None,
                 finished_walltime=None):
        self.job_id = job_id
        self.tenant = tenant
        self.spec = spec
        self.spec_hash = spec_hash
        self.state = state
        self.options = dict(options or {})
        #: Store directory relative to the service root.
        self.store = store
        self.error = error
        self.resumes = int(resumes)
        self.submitted_walltime = submitted_walltime
        self.started_walltime = started_walltime
        self.finished_walltime = finished_walltime

    @property
    def terminal(self):
        return self.state in TERMINAL_STATES

    def to_dict(self):
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "spec": self.spec,
            "spec_hash": self.spec_hash,
            "state": self.state,
            "options": self.options,
            "store": self.store,
            "error": self.error,
            "resumes": self.resumes,
            "submitted_walltime": self.submitted_walltime,
            "started_walltime": self.started_walltime,
            "finished_walltime": self.finished_walltime,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(**{
            key: data.get(key) for key in (
                "job_id", "tenant", "spec", "spec_hash", "state",
                "options", "store", "error", "submitted_walltime",
                "started_walltime", "finished_walltime",
            )
        }, resumes=data.get("resumes", 0))

    def __repr__(self):
        return f"JobRecord({self.job_id!r}, {self.state})"


class JobQueue:
    """Thread-safe, crash-safe FIFO of :class:`JobRecord` objects.

    The in-memory dict is authoritative; every mutation but
    :meth:`mark_store` persists the whole queue atomically before
    returning, so readers of ``queue.json`` (a restarted service, an
    operator's editor) always see a consistent snapshot and a kill can
    never tear the file.
    Every persisted mutation also wakes the threads blocked in
    :meth:`wait_for_state_change`.
    """

    def __init__(self, root):
        self.root = os.path.abspath(str(root))
        self.path = os.path.join(self.root, _QUEUE_NAME)
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._jobs = {}
        self._next_serial = 1
        self._load()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _load(self):
        if not os.path.isfile(self.path):
            return
        payload = ArtifactStore._read_json(self.path)
        version = payload.get("format_version")
        if version != _QUEUE_FORMAT:
            raise ServiceError(
                f"queue format version {version!r} is not supported "
                f"(expected {_QUEUE_FORMAT})"
            )
        self._next_serial = int(payload.get("next_serial", 1))
        for record in payload.get("jobs", []):
            job = JobRecord.from_dict(record)
            self._jobs[job.job_id] = job

    def _persist(self):
        # Caller holds self._lock.
        ArtifactStore._write_json(self.path, {
            "format_version": _QUEUE_FORMAT,
            "next_serial": self._next_serial,
            "jobs": [job.to_dict() for job in self._jobs.values()],
        })
        self._changed.notify_all()

    # ------------------------------------------------------------------
    # Submission / lookup
    # ------------------------------------------------------------------
    def submit(self, spec, tenant=DEFAULT_TENANT, options=None):
        """Enqueue a campaign spec; returns the new :class:`JobRecord`.

        ``spec`` may be a :class:`CampaignSpec` or its dict form (it is
        validated either way, so a malformed submission fails here --
        at the API boundary -- not inside a worker thread).  ``options``
        are per-job runner keyword overrides (``executor``, ``workers``,
        ``retry``, ...), persisted with the record.
        """
        validate_name(tenant, "tenant")
        if isinstance(spec, CampaignSpec):
            spec_dict = spec.to_dict()
        else:
            spec_dict = CampaignSpec.from_dict(spec).to_dict()
        digest = spec_hash(spec_dict)
        with self._lock:
            serial = self._next_serial
            self._next_serial += 1
            job = JobRecord(
                job_id=f"job-{serial:04d}-{digest[:8]}",
                tenant=tenant,
                spec=spec_dict,
                spec_hash=digest,
                options=options,
                submitted_walltime=time.time(),
            )
            self._jobs[job.job_id] = job
            self._persist()
        return job

    def get(self, job_id):
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return job

    def wait_for_state_change(self, job_id, state, timeout):
        """Block until the job leaves ``state`` or ``timeout`` seconds
        pass, whichever comes first."""
        job = self.get(job_id)
        with self._changed:
            self._changed.wait_for(lambda: job.state != state, timeout)

    def jobs(self, tenant=None, states=None):
        """Snapshot of records, submission-ordered; optionally filtered."""
        with self._lock:
            jobs = list(self._jobs.values())
        if tenant is not None:
            jobs = [job for job in jobs if job.tenant == tenant]
        if states is not None:
            states = set(states)
            jobs = [job for job in jobs if job.state in states]
        return jobs

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def _transition(self, job_id, from_states, to_state, **fields):
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job id {job_id!r}")
            if job.state not in from_states:
                raise ServiceError(
                    f"job {job_id!r} is {job.state!r}, cannot move to "
                    f"{to_state!r} (needs one of {sorted(from_states)})"
                )
            job.state = to_state
            for key, value in fields.items():
                setattr(job, key, value)
            self._persist()
        return job

    def claim_next(self):
        """Oldest queued job -> ``running``; ``None`` when queue is idle."""
        with self._lock:
            for job in self._jobs.values():  # insertion == submission order
                if job.state == "queued":
                    job.state = "running"
                    job.started_walltime = time.time()
                    self._persist()
                    return job
        return None

    def mark_store(self, job_id, store_relpath):
        """Record the job's store directory (relative to service root).

        In memory only: the next persisted mutation writes it.  A job
        recovered from a ``queue.json`` written before then has no
        recorded store, and
        :meth:`~repro.service.manager.JobManager.store_for` finds the
        same directory through the namespace convention.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job id {job_id!r}")
            job.store = store_relpath
        return job

    def complete(self, job_id):
        return self._transition(
            job_id, ("running",), "completed",
            finished_walltime=time.time(), error=None,
        )

    def fail(self, job_id, error):
        return self._transition(
            job_id, ("running",), "failed",
            finished_walltime=time.time(), error=str(error),
        )

    def cancel(self, job_id):
        """Cancel a *queued* job (running jobs cannot be cancelled --
        the runner owns the store lock until it returns)."""
        return self._transition(
            job_id, ("queued",), "cancelled", finished_walltime=time.time(),
        )

    def recover_running(self):
        """Requeue jobs left ``running`` by a killed service.

        Called once at service start, before the dispatcher: every
        ``running`` record must be an orphan (its runner died with the
        previous process), so it goes back to ``queued`` with
        ``resumes`` incremented and will resume from its store
        checkpoints.  Returns the recovered records.
        """
        recovered = []
        with self._lock:
            for job in self._jobs.values():
                if job.state == "running":
                    job.state = "queued"
                    job.resumes += 1
                    recovered.append(job)
            if recovered:
                self._persist()
        return recovered

    def __len__(self):
        with self._lock:
            return len(self._jobs)

    def __repr__(self):
        with self._lock:
            counts = {}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
        return f"JobQueue({self.path!r}, {counts})"
