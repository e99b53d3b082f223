"""Executor backends: where and how campaign samples are evaluated.

The executor owns the evaluation loop only -- sampling, checkpointing and
reduction stay in the runner, so every executor produces byte-identical
campaign results.  Backends are registry-backed
(:func:`register_backend`); three ship built in:

* ``"serial"`` -- :class:`SerialExecutor`, the in-process loop;
* ``"process"`` -- :class:`ParallelExecutor` over a
  ``ProcessPoolExecutor``;
* ``"thread"`` -- :class:`ParallelExecutor` over a
  ``ThreadPoolExecutor``.

The two pool backends differ only in the pool class.  The pool's
initializer builds the model **once per worker** (process or thread)
from the picklable model source (a
:class:`~repro.campaign.spec.ScenarioSpec` or plain callable) and keeps
it in a thread-local slot.  Building the Date16 scenario constructs the
coupled solver in fast mode, so the base LU / Woodbury operators are
cached in the worker for its whole lifetime and each sample costs only
solves.

Other backends (a cluster, an MPI pool) register a factory returning
an :class:`Executor` subclass that implements ``run_chunks``, and become
addressable as ``--executor NAME`` on the CLI (name the registering
module in ``ScenarioSpec.module`` so the registration also happens when
a spec is loaded fresh).

Model sources
-------------
Anything with a ``build_model()`` method (built once per worker, then
kept) or a plain picklable callable.  Bound methods of solver-holding
objects are *not* picklable -- that is exactly why the spec layer exists.

Fault tolerance
---------------
``run_chunks`` takes an optional
:class:`~repro.campaign.faults.RetryPolicy`.  With one, a chunk whose
evaluation raises is retried up to ``max_retries`` times (exponential
backoff, deterministic jitter) and finally yielded as a
:class:`~repro.campaign.faults.ChunkFailure` instead of killing the
campaign; the pool backends additionally survive a broken pool
(``BrokenExecutor``: a killed worker process, or a worker whose model
build raised): the pool is rebuilt and every in-flight chunk
re-submitted.  Without a policy the historic fail-fast contract holds --
the first failure propagates -- but always as a context-rich
:class:`~repro.errors.ChunkEvaluationError` naming the chunk, the
global sample indices and the worker.
"""

import heapq
import itertools
import os
import threading
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)

import numpy as np

from ..errors import CampaignError, ChunkEvaluationError
from ..telemetry import tracing as telemetry
from .faults import ChunkFailure, failure_from_error


def resolve_model(model_source):
    """Turn a model source into the evaluation callable."""
    build = getattr(model_source, "build_model", None)
    if callable(build):
        return build()
    if callable(model_source):
        return model_source
    raise CampaignError(
        f"model source must be callable or provide build_model(), got "
        f"{type(model_source).__name__}"
    )


class WorkChunk:
    """One executor task: evaluate ``parameters`` rows ``indices``.

    ``capture_telemetry`` travels on the (pickled) chunk so the runner's
    telemetry decision is authoritative in pool workers -- a worker
    process cannot see the parent's :func:`repro.telemetry.disable`
    call.  ``None`` defers to the worker-side global flag.
    ``dispatch_walltime`` is stamped (POSIX seconds) by the executor at
    submit time; the worker computes its queue wait from it.
    """

    def __init__(self, chunk_index, indices, parameters,
                 capture_telemetry=None):
        self.chunk_index = int(chunk_index)
        self.indices = np.asarray(indices, dtype=int)
        self.parameters = np.asarray(parameters, dtype=float)
        self.capture_telemetry = capture_telemetry
        self.dispatch_walltime = None
        if self.parameters.ndim != 2:
            raise CampaignError("chunk parameters must be a 2D array")
        if self.indices.size != self.parameters.shape[0]:
            raise CampaignError(
                f"chunk has {self.indices.size} indices but "
                f"{self.parameters.shape[0]} parameter rows"
            )


class ChunkResult:
    """Outputs of one completed chunk, in sample order.

    ``telemetry`` is ``None`` or a picklable dict (spans, metrics,
    timings) riding back to the runner, which persists it -- workers do
    not know the store path.
    """

    def __init__(self, chunk_index, indices, parameters, outputs,
                 telemetry=None):
        self.chunk_index = int(chunk_index)
        self.indices = np.asarray(indices, dtype=int)
        self.parameters = np.asarray(parameters, dtype=float)
        self.outputs = np.asarray(outputs, dtype=float)
        self.telemetry = telemetry
        #: Evaluation attempts this result took (set by the retrying
        #: submit loop; 1 for a first-try success).
        self.attempts = 1


def _worker_label():
    """``pid:thread-name`` -- unique per worker of every backend."""
    return f"{os.getpid()}:{threading.current_thread().name}"


def _stamp_dispatch(chunk):
    """Record submit-time wall clock on the chunk (queue-wait origin)."""
    chunk.dispatch_walltime = time.time()
    return chunk


def _chunk_outputs(model, chunk):
    """Evaluate every row of a chunk -- blocked when the model allows it.

    The single evaluation implementation behind both telemetry modes of
    :func:`evaluate_chunk` (the span/metric calls are no-ops without an
    active collector, so the disabled path pays only a no-op guard per
    row).  A model exposing a callable ``evaluate_block`` attribute --
    the sample-blocked fast path (see
    :class:`repro.uq.monte_carlo.BlockedModel`) -- evaluates the whole
    chunk in one call under a ``block`` span, recording the batch size
    and the per-sample amortized cost; plain callables (e.g. the
    Ishigami fixtures, scalar toy models) keep the per-row loop.
    """
    num_samples = chunk.parameters.shape[0]
    block = getattr(model, "evaluate_block", None)
    if callable(block):
        backend_name = getattr(model, "array_backend", None) or "numpy"
        start = time.perf_counter()
        with telemetry.span("block", samples=num_samples,
                            array_backend=backend_name):
            outputs = np.asarray(block(chunk.parameters), dtype=float)
        wall_s = time.perf_counter() - start
        if outputs.shape[0] != num_samples:
            raise CampaignError(
                f"evaluate_block returned {outputs.shape[0]} outputs for "
                f"{num_samples} samples"
            )
        telemetry.gauge("campaign.batch_size", num_samples)
        telemetry.increment("campaign.blocked_solves", num_samples)
        if num_samples:
            telemetry.observe(
                "campaign.sample_amortized_s", wall_s / num_samples
            )
        return outputs
    outputs = []
    for row in range(num_samples):
        with telemetry.span("sample", index=int(chunk.indices[row])):
            outputs.append(
                np.asarray(model(chunk.parameters[row]), dtype=float)
            )
    telemetry.increment("campaign.loop_solves", num_samples)
    return np.stack(outputs)


def _wrap_evaluation_error(chunk, exc):
    """Raise the chunk's failure with full campaign context attached.

    The surfaced :class:`~repro.errors.ChunkEvaluationError` names the
    chunk index, the global sample indices and the worker label, so a
    failure deep inside ``model(row)`` is actionable from the campaign
    log alone -- and the context survives pickling back from pool
    workers.
    """
    indices = [int(index) for index in chunk.indices]
    first, last = (indices[0], indices[-1]) if indices else (None, None)
    worker = _worker_label()
    raise ChunkEvaluationError(
        f"chunk {chunk.chunk_index} failed on worker {worker} "
        f"(samples {first}..{last}): {exc!r}",
        chunk_index=chunk.chunk_index,
        sample_indices=indices,
        worker=worker,
        cause_repr=repr(exc),
        cause_traceback="".join(
            traceback_module.format_exception(type(exc), exc,
                                              exc.__traceback__)
        ),
    ) from exc


def evaluate_chunk(model, chunk):
    """Evaluate every sample of a chunk with an already-built model.

    When the chunk asks for telemetry (or defers to an enabled global
    flag), the evaluation runs inside a capture scope: a ``chunk`` span
    wrapping either one ``block`` span (models with the sample-blocked
    ``evaluate_block`` interface) or one ``sample`` span per row, plus
    whatever ambient metrics the solver stack emits (cache hits, coupled
    steps, blocked solves...).  The capture is summarized into a
    picklable ``ChunkResult.telemetry`` dict.  Disabled, the same
    evaluation helper runs without a collector -- every span/metric call
    is a no-op.

    Any exception out of the evaluation is re-raised as a
    :class:`~repro.errors.ChunkEvaluationError` carrying the chunk
    index, sample indices and worker label (see
    :func:`_wrap_evaluation_error`).
    """
    try:
        return _evaluate_chunk_inner(model, chunk)
    except ChunkEvaluationError:
        raise
    except Exception as exc:
        _wrap_evaluation_error(chunk, exc)


def _evaluate_chunk_inner(model, chunk):
    should_capture = getattr(chunk, "capture_telemetry", None)
    if should_capture is None:
        should_capture = telemetry.enabled()
    if not should_capture:
        return ChunkResult(
            chunk.chunk_index, chunk.indices, chunk.parameters,
            _chunk_outputs(model, chunk),
        )

    start_walltime = time.time()
    start = time.perf_counter()
    with telemetry.capture() as collected:
        with telemetry.span(
            "chunk",
            chunk=chunk.chunk_index,
            samples=int(chunk.indices.size),
        ):
            outputs = _chunk_outputs(model, chunk)
    wall_s = time.perf_counter() - start
    record = {
        "chunk": chunk.chunk_index,
        "samples": int(chunk.indices.size),
        "worker": _worker_label(),
        "wall_s": wall_s,
        "start_walltime": start_walltime,
        "end_walltime": time.time(),
        "events": collected.events,
        "metrics": collected.registry.as_dict(),
    }
    dispatched = getattr(chunk, "dispatch_walltime", None)
    if dispatched is not None:
        # Wall clocks are comparable across processes of one machine;
        # clamp tiny negative skew to zero.
        record["queue_wait_s"] = max(0.0, start_walltime - dispatched)
    return ChunkResult(
        chunk.chunk_index, chunk.indices, chunk.parameters,
        outputs, telemetry=record,
    )


def _drive_chunks(submit, rebuild, chunks, max_pending, policy):
    """The retrying bounded-in-flight submit loop behind the pool executor.

    ``submit(chunk) -> future`` dispatches one chunk on the current
    pool; ``rebuild()`` replaces a broken pool so subsequent submits
    land on fresh workers.  Yields :class:`ChunkResult` per
    completed chunk and -- when a policy is given -- a
    :class:`~repro.campaign.faults.ChunkFailure` per chunk that
    exhausted its retries.  Without a policy the first failure is
    re-raised (the historic fail-fast contract).

    Straggler timeouts re-submit speculatively: a timed-out future that
    cannot be cancelled keeps running as an *abandoned* attempt, and
    whichever attempt of the chunk completes first wins (late
    duplicates are dropped).  Worker death (``BrokenExecutor``) dooms
    every in-flight future at once and cannot be attributed to a single
    chunk, so each in-flight chunk's attempt counts the death; with
    ``max_retries >= 1`` the innocent chunks simply succeed on the
    rebuilt pool.
    """
    max_retries = policy.max_retries if policy is not None else 0
    timeout_s = policy.timeout_s if policy is not None else None
    queue = deque((chunk, 1) for chunk in chunks)
    delayed = []  # heap of (ready_monotonic, tiebreak, chunk, attempt)
    tiebreak = itertools.count()
    in_flight = {}  # future -> [chunk, attempt, deadline, abandoned]
    resolved = set()
    # A pool can break *while being fed*: submit() itself raises
    # BrokenExecutor.  The chunk goes back on the queue and the broken
    # pool is handled at the top of the main loop (same path as a
    # future that resolves broken).
    broken_on_submit = [None]

    def active_count():
        return sum(1 for entry in in_flight.values() if not entry[3])

    def submit_one(chunk, attempt):
        try:
            future = submit(chunk)
        except BrokenExecutor as exc:
            if policy is None:
                raise
            broken_on_submit[0] = exc
            queue.appendleft((chunk, attempt))
            return False
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        in_flight[future] = [chunk, attempt, deadline, False]
        return True

    def fill():
        now = time.monotonic()
        while (delayed and delayed[0][0] <= now
               and active_count() < max_pending
               and broken_on_submit[0] is None):
            _, _, chunk, attempt = heapq.heappop(delayed)
            if not submit_one(chunk, attempt):
                break
        while (queue and active_count() < max_pending
               and broken_on_submit[0] is None):
            chunk, attempt = queue.popleft()
            if not submit_one(chunk, attempt):
                break

    def retry_or_fail(chunk, attempt, error, message=None):
        """Schedule a retry, or return the terminal ChunkFailure."""
        if attempt <= max_retries:
            delay = policy.delay_s(chunk.chunk_index, attempt)
            heapq.heappush(
                delayed,
                (time.monotonic() + delay, next(tiebreak), chunk,
                 attempt + 1),
            )
            return None
        return failure_from_error(chunk, error, attempt, message=message)

    fill()
    while in_flight or queue or delayed:
        broken = broken_on_submit[0]
        broken_on_submit[0] = None
        done = set()
        if broken is None:
            if not in_flight:
                if delayed:
                    pause = delayed[0][0] - time.monotonic()
                    if pause > 0:
                        time.sleep(pause)
                fill()
                continue
            poll = None
            now = time.monotonic()
            deadlines = [
                entry[2] for entry in in_flight.values()
                if entry[2] is not None and not entry[3]
            ]
            if deadlines:
                poll = max(0.0, min(deadlines) - now)
            if delayed:
                until_ready = max(0.0, delayed[0][0] - now)
                poll = (until_ready if poll is None
                        else min(poll, until_ready))
            done, _ = wait(set(in_flight), timeout=poll,
                           return_when=FIRST_COMPLETED)
        for future in done:
            chunk, attempt, _, abandoned = in_flight.pop(future)
            error = future.exception()
            if error is None:
                result = future.result()
                if result.chunk_index in resolved:
                    continue  # late duplicate of a timed-out chunk
                resolved.add(result.chunk_index)
                result.attempts = attempt
                yield result
                continue
            if policy is None:
                raise error
            if isinstance(error, BrokenExecutor):
                broken = error
                if not abandoned:
                    in_flight[future] = [chunk, attempt, None, False]
                continue
            if abandoned or chunk.chunk_index in resolved:
                continue  # a replacement attempt owns this chunk now
            failure = retry_or_fail(chunk, attempt, error)
            if failure is not None:
                resolved.add(chunk.chunk_index)
                yield failure
        if broken is not None:
            # Every in-flight future is doomed with the pool.  Collect
            # one (chunk, attempt) per chunk -- a chunk may have both an
            # active and an abandoned attempt in flight -- then rebuild
            # and retry.
            casualties = {}
            for chunk, attempt, _, abandoned in in_flight.values():
                if chunk.chunk_index in resolved:
                    continue
                known = casualties.get(chunk.chunk_index)
                if known is None or not abandoned:
                    casualties[chunk.chunk_index] = (chunk, attempt)
            in_flight.clear()
            rebuild()
            for chunk, attempt in casualties.values():
                failure = retry_or_fail(
                    chunk, attempt, broken,
                    message=f"worker died evaluating chunk "
                            f"{chunk.chunk_index} (attempt {attempt}): "
                            f"{broken!r}",
                )
                if failure is not None:
                    resolved.add(chunk.chunk_index)
                    yield failure
        if timeout_s is not None:
            now = time.monotonic()
            for future, entry in list(in_flight.items()):
                chunk, attempt, deadline, abandoned = entry
                if abandoned or deadline is None or deadline > now:
                    continue
                if future.cancel():
                    del in_flight[future]
                else:
                    entry[3] = True  # keep watching for a late result
                failure = retry_or_fail(
                    chunk, attempt, None,
                    message=f"chunk {chunk.chunk_index} timed out after "
                            f"{timeout_s} s (attempt {attempt})",
                )
                if failure is not None:
                    resolved.add(chunk.chunk_index)
                    yield failure
        fill()


class Executor:
    """Interface: ``run_chunks`` evaluates a campaign's chunks."""

    def run_chunks(self, model_source, chunks, policy=None):
        """Yield a :class:`ChunkResult` per chunk as each completes.

        Completion order is executor-dependent; callers must not rely on
        it (the runner reduces in chunk-index order regardless).  With a
        :class:`~repro.campaign.faults.RetryPolicy`, failed chunks are
        retried per the policy and terminal failures are yielded as
        :class:`~repro.campaign.faults.ChunkFailure` records; without
        one the first failure raises.
        """
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-process evaluation: builds the model once, loops over samples.

    With a retry policy, a failed chunk is re-evaluated after the
    policy's backoff and finally yielded as a
    :class:`~repro.campaign.faults.ChunkFailure`; the per-chunk
    ``timeout_s`` is documented as unenforced here (a single-process
    loop cannot preempt its own evaluation).
    """

    name = "serial"

    def run_chunks(self, model_source, chunks, policy=None):
        model = resolve_model(model_source)
        for chunk in chunks:
            if policy is None:
                yield evaluate_chunk(model, _stamp_dispatch(chunk))
                continue
            attempt = 1
            while True:
                try:
                    result = evaluate_chunk(model, _stamp_dispatch(chunk))
                except Exception as exc:
                    if attempt <= policy.max_retries:
                        delay = policy.delay_s(chunk.chunk_index, attempt)
                        if delay > 0:
                            time.sleep(delay)
                        attempt += 1
                        continue
                    yield ChunkFailure.from_exception(chunk, exc, attempt)
                    break
                result.attempts = attempt
                yield result
                break


# ----------------------------------------------------------------------
# Pool executor: the pool initializer builds the model once per worker
# (process or thread) into a thread-local slot, so task payloads are
# only the chunks.
# ----------------------------------------------------------------------
_WORKER = threading.local()


def _worker_initialize(model_source):
    _WORKER.model = resolve_model(model_source)


def _worker_evaluate_chunk(chunk):
    model = getattr(_WORKER, "model", None)
    if model is None:  # pragma: no cover - initializer always ran
        raise CampaignError("worker model was never initialized")
    return evaluate_chunk(model, chunk)


class ParallelExecutor(Executor):
    """Pool evaluation with per-worker model/factorization reuse.

    Parameters
    ----------
    num_workers:
        Pool size (default: CPU count, capped at 8 -- field solves are
        memory-bound, more workers rarely help past that).
    max_pending:
        Chunks in flight at once, at least 1 (default
        ``2 * num_workers``; bounds memory when campaigns have many more
        chunks than workers).
    pool:
        The ``concurrent.futures`` pool class (or any callable taking
        ``max_workers``, ``initializer`` and ``initargs``):
        ``ProcessPoolExecutor`` (the ``"process"`` backend) or
        ``ThreadPoolExecutor`` (the ``"thread"`` backend).  Either way
        every worker builds its own model in the pool initializer,
        which stateful models (the Date16 solver mutates wire lengths
        per sample) need on threads too.  A worker whose model build
        raises breaks the pool -- the same ``BrokenExecutor`` path as a
        killed worker process.
    """

    def __init__(self, num_workers=None, max_pending=None,
                 pool=ProcessPoolExecutor):
        if num_workers is None:
            num_workers = min(os.cpu_count() or 1, 8)
        self.num_workers = int(num_workers)
        if self.num_workers < 1:
            raise CampaignError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        self.max_pending = (
            int(max_pending) if max_pending is not None
            else 2 * self.num_workers
        )
        if self.max_pending < 1:
            raise CampaignError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        self.pool = pool
        self.name = "thread" if pool is ThreadPoolExecutor else "process"

    def _pool(self, model_source):
        return self.pool(
            max_workers=self.num_workers,
            initializer=_worker_initialize,
            initargs=(model_source,),
        )

    def run_chunks(self, model_source, chunks, policy=None):
        chunks = list(chunks)
        if not chunks:
            return
        holder = {"pool": self._pool(model_source)}

        def submit(chunk):
            return holder["pool"].submit(_worker_evaluate_chunk,
                                         _stamp_dispatch(chunk))

        def rebuild():
            # A broken pool's shutdown never blocks, but be explicit:
            # we must not wait on futures that will never complete.
            holder["pool"].shutdown(wait=False)
            holder["pool"] = self._pool(model_source)

        try:
            yield from _drive_chunks(submit, rebuild, chunks,
                                     self.max_pending, policy)
        finally:
            holder["pool"].shutdown(wait=True)


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
_BACKENDS = {}


def register_backend(name, factory=None):
    """Register ``factory(num_workers=None) -> Executor`` under ``name``.

    Usable directly or as a decorator.  The name becomes addressable
    everywhere an executor is named: ``run_campaign(executor=name)``,
    the CLI's ``--executor name``, ``make_executor(name)``.  A factory
    that cannot honor ``num_workers`` must raise
    :class:`~repro.errors.CampaignError` when one is passed, so user
    intent is never silently dropped.
    """
    if factory is None:
        def decorator(func):
            _BACKENDS[str(name)] = func
            return func
        return decorator
    _BACKENDS[str(name)] = factory
    return factory


def registered_backends():
    """Sorted names of every registered executor backend."""
    return sorted(_BACKENDS)


@register_backend("serial")
def _serial_backend(num_workers=None):
    if num_workers is not None:
        raise CampaignError(
            "the 'serial' backend runs in-process and ignores worker "
            "counts; drop --workers or pick a parallel backend "
            f"({', '.join(sorted(set(_BACKENDS) - {'serial'}))})"
        )
    return SerialExecutor()


@register_backend("process")
def _process_backend(num_workers=None):
    return ParallelExecutor(num_workers=num_workers)


@register_backend("thread")
def _thread_backend(num_workers=None):
    return ParallelExecutor(num_workers=num_workers,
                            pool=ThreadPoolExecutor)


def make_executor(kind, num_workers=None):
    """Resolve a backend name (or pass an Executor through) -> Executor.

    ``kind`` is ``None`` (the serial default), a registered backend name
    (``"serial"``, ``"process"``, ``"thread"`` or
    anything added via :func:`register_backend`), or a ready
    :class:`Executor` instance -- which is returned as-is and must not
    be combined with ``num_workers``.
    """
    if isinstance(kind, Executor):
        if num_workers is not None:
            raise CampaignError(
                "num_workers cannot be combined with a ready Executor "
                "instance; size the instance directly"
            )
        return kind
    if kind is None:
        kind = "serial"
        if num_workers is not None:
            raise CampaignError(
                "--workers needs a parallel executor backend; pass e.g. "
                "--executor process"
            )
    try:
        factory = _BACKENDS[kind]
    except KeyError:
        raise CampaignError(
            f"unknown executor backend {kind!r}; registered: "
            f"{registered_backends()}"
        ) from None
    return factory(num_workers=num_workers)
