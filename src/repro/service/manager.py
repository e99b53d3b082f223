"""The job manager: bounded concurrent campaigns over the runner.

:class:`JobManager` turns the library's blocking
:func:`~repro.campaign.runner.run_campaign` into a managed job: a
dispatcher thread claims queued jobs (FIFO) while fewer than
``max_workers`` are active and runs each in its own thread through the
normal runner path -- so every job inherits checkpointing, telemetry,
retry/quarantine and kill/resume semantics unchanged, and in-process
executor backends (``serial`` / ``thread``) of concurrent jobs share
the process-level :func:`~repro.solvers.cache.shared_cache`
automatically: two campaigns over the same scenario factorize each
system matrix once.

Restart recovery is the queue's: :meth:`start` requeues jobs left
``running`` by a killed service, and :meth:`_run_job` resumes any job
whose store already exists via
:func:`~repro.campaign.runner.resume_campaign` -- producing results
bit-identical to an uninterrupted run (the runner's contract).
"""

import os
import threading
import time
import traceback

from ..campaign.runner import resume_campaign, run_campaign
from ..campaign.spec import CampaignSpec
from ..errors import ReproError, ServiceError
from ..solvers.cache import shared_cache
from .jobs import JobQueue
from .namespace import DEFAULT_TENANT, Namespace
from .status import store_status

#: Job-option keys a submission may set (runner keyword overrides).
JOB_OPTIONS = ("executor", "workers", "retry", "retry_quarantined",
               "telemetry")


def _drop_removed_array_backend(options):
    """Accept the ``array_backend`` job option of older queue records.

    Jobs once picked the solvers' array backend; numpy is the only
    linear-algebra path now, so a queued ``"numpy"`` is dropped and any
    other value fails the job rather than silently running on numpy.
    """
    backend = options.pop("array_backend", None)
    if backend not in (None, "numpy"):
        raise ServiceError(
            f"job option array_backend={backend!r} is no longer "
            f"supported: array backends were removed and the solvers "
            f"run on numpy only"
        )


class JobManager:
    """Queue-backed scheduler of concurrent campaigns under one root.

    Parameters
    ----------
    root:
        Service root directory: holds ``queue.json`` and the
        ``stores/<tenant>/<job-id>/`` namespace.
    max_workers:
        Concurrent job budget (default 2): how many campaigns run at
        once.  Each job's own executor parallelism multiplies on top,
        so the total worker budget is ``max_workers x workers``.
    executor / workers / retry / telemetry:
        Default runner arguments for every job; a job's submitted
        ``options`` override them per job.

    The dispatcher sleeps until woken: by :meth:`submit`, by a job
    thread's exit and by :meth:`stop` -- the only events that can make
    a job claimable or a worker slot free.
    """

    def __init__(self, root, max_workers=2, executor=None, workers=None,
                 retry=None, telemetry=None):
        self.root = os.path.abspath(str(root))
        os.makedirs(self.root, exist_ok=True)
        self.namespace = Namespace(self.root)
        self.queue = JobQueue(self.root)
        self.max_workers = int(max_workers)
        if self.max_workers < 1:
            raise ServiceError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        self.defaults = {
            "executor": executor,
            "workers": workers,
            "retry": retry,
            "telemetry": telemetry,
        }
        self._dispatcher = None
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._active = {}
        self._active_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, recover=True):
        """Start the dispatcher (idempotent); returns recovered jobs.

        With ``recover`` (default), jobs left ``running`` by a killed
        service go back to the queue first -- their stores' checkpoints
        make the re-run a resume, not a restart.
        """
        recovered = self.queue.recover_running() if recover else []
        if self._dispatcher is None or not self._dispatcher.is_alive():
            self._stop.clear()
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="repro-service-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()
        return recovered

    def stop(self, wait=True):
        """Stop claiming new jobs; optionally wait for active ones."""
        self._stop.set()
        self._wake.set()
        dispatcher = self._dispatcher
        if dispatcher is not None:
            dispatcher.join()
            self._dispatcher = None
        if wait:
            self.join()

    def join(self, timeout=None):
        """Block until every active job thread has returned."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._active_lock:
                threads = list(self._active.values())
            if not threads:
                return True
            for thread in threads:
                remaining = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.monotonic())
                thread.join(remaining)
                if deadline is not None and time.monotonic() >= deadline:
                    with self._active_lock:
                        return not self._active
        # unreachable

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop(wait=True)
        return False

    # ------------------------------------------------------------------
    # Submission / queries
    # ------------------------------------------------------------------
    def submit(self, spec, tenant=DEFAULT_TENANT, options=None):
        """Validate and enqueue a campaign; returns the job record.

        ``options`` may override the manager's default runner arguments
        for this job only (keys in :data:`JOB_OPTIONS`); anything else
        is rejected here, at the boundary.
        """
        options = dict(options or {})
        unknown = sorted(set(options) - set(JOB_OPTIONS))
        if unknown:
            raise ServiceError(
                f"unknown job option(s) {unknown}; supported: "
                f"{sorted(JOB_OPTIONS)}"
            )
        job = self.queue.submit(spec, tenant=tenant, options=options)
        self._wake.set()
        return job

    def job(self, job_id):
        return self.queue.get(job_id)

    def jobs(self, tenant=None, states=None):
        return self.queue.jobs(tenant=tenant, states=states)

    def cancel(self, job_id):
        return self.queue.cancel(job_id)

    def store_for(self, job):
        """The job's :class:`ArtifactStore` (from its recorded relative
        path when set, else the namespace convention)."""
        if job.store:
            from ..campaign.store import ArtifactStore

            return ArtifactStore(self.namespace.resolve(job.store))
        return self.namespace.store(job.tenant, job.job_id)

    def status(self, job_id):
        """Job record + live store status, one JSON-serializable dict.

        This is what ``GET /jobs/<id>`` returns: queue-level lifecycle
        (state, timestamps, resumes, error) merged with the store-level
        snapshot (frontier, quarantine, heartbeat, partial moments) --
        all from small checkpoint files, never chunk data.
        """
        job = self.queue.get(job_id)
        status = store_status(self.store_for(job))
        status.update({
            "job_id": job.job_id,
            "tenant": job.tenant,
            "spec_hash": job.spec_hash,
            "job_state": job.state,
            "resumes": job.resumes,
            "submitted_walltime": job.submitted_walltime,
            "started_walltime": job.started_walltime,
            "finished_walltime": job.finished_walltime,
        })
        if job.error:
            status["error"] = job.error
        # The job lifecycle state is authoritative for the top-level
        # ``state`` the service reports; the store view stays available
        # as ``store_state``.
        status["store_state"] = status["state"]
        status["state"] = job.state
        return status

    def watch(self, job_id, interval_s=0.2, timeout_s=None):
        """Yield status snapshots until the job reaches a terminal state.

        Emits an initial snapshot immediately, then one per *change*,
        and always emits the terminal snapshot last.  A queue transition
        wakes the watcher as soon as it is persisted; store progress is
        re-read every ``interval_s``.  Raises :class:`ServiceError` on
        timeout.
        """
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        previous = None
        while True:
            status = self.status(job_id)
            snapshot = {
                key: value for key, value in status.items()
                if not key.endswith("walltime")
            }
            if snapshot != previous:
                previous = snapshot
                yield status
            if status["state"] in ("completed", "failed", "cancelled"):
                return
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"watch of job {job_id!r} timed out after "
                    f"{timeout_s}s (state {status['state']!r})"
                )
            self.queue.wait_for_state_change(
                job_id, status["state"], interval_s
            )

    def result(self, job_id):
        """The completed job's summary dict (the store's summary.json).

        Raises :class:`ServiceError` while the job is not ``completed``
        -- poll :meth:`status` or iterate :meth:`watch` first.
        """
        job = self.queue.get(job_id)
        if job.state != "completed":
            raise ServiceError(
                f"job {job_id!r} is {job.state!r}"
                + (f": {job.error}" if job.error else "")
                + "; no result available"
            )
        return self.store_for(job).read_summary()

    def stats(self):
        """Service-level counters: queue states, active threads, shared
        factorization-cache hits."""
        counts = {state: 0 for state in
                  ("queued", "running", "completed", "failed", "cancelled")}
        for job in self.queue.jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        with self._active_lock:
            active = len(self._active)
        return {
            "jobs": counts,
            "active_workers": active,
            "max_workers": self.max_workers,
            "factorization_cache": shared_cache().stats(),
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self):
        while True:
            # Clear before looking for work: a wakeup that lands after
            # the check below is then still pending for the wait.
            self._wake.clear()
            if self._stop.is_set():
                return
            with self._active_lock:
                full = len(self._active) >= self.max_workers
            job = None if full else self.queue.claim_next()
            if job is None:
                self._wake.wait()
                continue
            thread = threading.Thread(
                target=self._run_job,
                args=(job,),
                name=f"repro-job-{job.job_id}",
                daemon=True,
            )
            with self._active_lock:
                self._active[job.job_id] = thread
            thread.start()

    def _runner_arguments(self, job):
        merged = dict(self.defaults)
        merged.update(job.options)
        _drop_removed_array_backend(merged)
        executor = merged.pop("executor", None)
        workers = merged.pop("workers", None)
        if workers is not None and executor in (None, "serial"):
            # A worker count needs a parallel backend; default to the
            # in-process thread pool so the shared cache still applies.
            executor = "thread"
        from ..campaign.executor import make_executor

        merged["executor"] = make_executor(executor, workers)
        return {key: value for key, value in merged.items()
                if value is not None}

    def _run_job(self, job):
        try:
            store = self.namespace.store(job.tenant, job.job_id)
            self.queue.mark_store(
                job.job_id, self.namespace.relative_path(store.path)
            )
            self.namespace.write_link(store, job)
            arguments = self._runner_arguments(job)
            if store.exists():
                resume_campaign(store, **arguments)
            else:
                spec = CampaignSpec.from_dict(job.spec)
                run_campaign(spec, store=store, **arguments)
            self.queue.complete(job.job_id)
        except ReproError as exc:
            self.queue.fail(job.job_id, exc)
        except Exception as exc:  # never let a job kill the dispatcher
            self.queue.fail(
                job.job_id,
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            )
        finally:
            with self._active_lock:
                self._active.pop(job.job_id, None)
            self._wake.set()

    def __repr__(self):
        return (
            f"JobManager({self.root!r}, max_workers={self.max_workers}, "
            f"jobs={len(self.queue)})"
        )
