"""Campaign orchestration: sample, execute, checkpoint, reduce, resume.

One :func:`run_campaign` / :func:`resume_campaign` pair serves every
campaign kind: the spec says *what to evaluate*, a registered
:class:`~repro.campaign.executor.Executor` backend says *where*, and a
registered :class:`~repro.campaign.reducer.Reducer` says *what the
evaluations become* (running moments, Jansen Sobol indices, a fitted
PCE surrogate, anything user-registered).

The runner is deliberately executor-agnostic and deterministic:

* parameters come from counter-based per-sample seeding (sample ``i``
  draws from ``SeedSequence(campaign_seed, spawn_key=(i,))``) or a
  seeded full-stream sampler, so the parameter matrix is a pure
  function of the spec -- independent of worker count, chunk completion
  order, and of how often the run was killed and resumed;
* outputs are checkpointed per chunk in the
  :class:`~repro.campaign.store.ArtifactStore`;
* the reduction folds the chunks into the reducer **in chunk-index
  order** (the contiguous frontier folds as soon as its chunks are
  available, regardless of completion order), so every executor and
  every kill/resume history produces bit-identical reductions;
* checkpointable reducers snapshot their state into the store after
  every folded chunk, so a resume restores the reduction itself instead
  of re-folding -- with results identical either way, because the state
  round-trips float64 exactly.
"""

import time

import numpy as np

from ..errors import CampaignError
from ..telemetry import MetricsRegistry, tracing
from ..uq.sampling import map_to_distributions
from . import registry
from .executor import WorkChunk, make_executor
from .faults import ChunkFailure, RetryPolicy
from .reducer import resolve_reducer
from .spec import CampaignSpec
from .store import ArtifactStore


# ----------------------------------------------------------------------
# Deterministic sampling
# ----------------------------------------------------------------------
def unit_sample(seed, sample_index, dimension):
    """Unit-cube point of one sample, independent of every other sample."""
    sequence = np.random.SeedSequence(
        entropy=int(seed), spawn_key=(int(sample_index),)
    )
    return np.random.default_rng(sequence).random(int(dimension))


def campaign_parameters(spec, indices=None):
    """Physical parameter rows for the given global sample indices.

    Delegates the unit-cube layout to ``spec.unit_points`` (plain
    stream/counter sampling for :class:`~repro.campaign.spec.
    CampaignSpec`, Saltelli block composition for
    :class:`~repro.campaign.sensitivity.SensitivitySpec`), so every
    sampler and every campaign flavor yields the same row for the same
    index no matter how the campaign is partitioned.
    """
    if indices is None:
        indices = range(spec.num_samples)
    indices = np.asarray(list(indices), dtype=int)
    if indices.size and (
        indices.min() < 0 or indices.max() >= spec.num_samples
    ):
        raise CampaignError(
            f"sample indices must be in [0, {spec.num_samples}), got "
            f"[{indices.min()}, {indices.max()}]"
        )
    return map_to_distributions(
        spec.unit_points(indices), spec.build_distribution()
    )


def campaign_chunks(spec, chunk_indices=None):
    """:class:`WorkChunk` list for the given (default: all) chunks.

    Full-stream samplers generate the whole deterministic stream once
    and slice it per chunk (regenerating per chunk would cost
    ``O(num_chunks * num_samples)``); counter-based sampling generates
    exactly the requested rows.
    """
    if chunk_indices is None:
        chunk_indices = range(spec.num_chunks)
    full_parameters = None
    if spec.sampler != registry.COUNTER_SAMPLER:
        full_parameters = campaign_parameters(spec)
    chunks = []
    for chunk_index in chunk_indices:
        indices = np.asarray(spec.chunk_indices(chunk_index), dtype=int)
        if full_parameters is not None:
            parameters = full_parameters[indices]
        else:
            parameters = campaign_parameters(spec, indices)
        chunks.append(WorkChunk(chunk_index, indices, parameters))
    return chunks


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
class CampaignResult:
    """Reduced statistics of a completed campaign.

    Attributes
    ----------
    spec:
        The :class:`~repro.campaign.spec.CampaignSpec` that was run.
    statistics:
        The merged :class:`~repro.uq.statistics.RunningStatistics`.
    parameters:
        The full ``(M, d)`` parameter matrix.
    num_evaluated:
        Samples evaluated by *this* call (0 when everything was already
        checkpointed -- a pure re-reduce).
    quarantine:
        ``{chunk_index: failure_record}`` of chunks quarantined after
        exhausting their retries (``None`` on failure-free campaigns);
        their samples are excluded from the statistics.
    """

    #: Set by the runner when chunks were quarantined this campaign.
    quarantine = None

    def __init__(self, spec, statistics, parameters, num_evaluated):
        self.spec = spec
        self.statistics = statistics
        self.parameters = parameters
        self.num_evaluated = int(num_evaluated)

    @property
    def num_samples(self):
        return self.statistics.count

    @property
    def mean(self):
        return self.statistics.mean

    @property
    def std(self):
        return self.statistics.std()

    @property
    def minimum(self):
        return self.statistics.minimum

    @property
    def maximum(self):
        return self.statistics.maximum

    def error(self):
        """The paper's eq. (6): ``sigma_MC / sqrt(M)`` per output entry."""
        return self.statistics.standard_error()

    def summary(self):
        """JSON-serializable scalars for reports and ``summary.json``."""
        mean = self.mean
        std = self.std
        hottest = int(np.argmax(mean))
        summary = {
            "campaign": self.spec.name,
            "problem": self.spec.scenario.problem,
            "qoi": self.spec.scenario.qoi,
            "num_samples": int(self.num_samples),
            "num_chunks": int(self.spec.num_chunks),
            "output_size": int(mean.size),
            "mean_max": float(np.max(mean)),
            "mean_min": float(np.min(mean)),
            "std_max": float(np.max(std)),
            "error_mc_max": float(np.max(self.error())),
            "argmax_output": hottest,
        }
        if self.quarantine:
            summary["num_quarantined_chunks"] = len(self.quarantine)
            summary["num_quarantined_samples"] = int(sum(
                len(record.get("indices", ()))
                for record in self.quarantine.values()
            ))
        return summary

    def __repr__(self):
        return (
            f"CampaignResult({self.spec.name!r}, M={self.num_samples}, "
            f"output_shape={np.shape(self.statistics.mean)})"
        )


# ----------------------------------------------------------------------
# Progress and telemetry plumbing
# ----------------------------------------------------------------------
class _Heartbeat:
    """EWMA chunk-rate tracker producing ``heartbeat`` event dicts."""

    #: EWMA smoothing: ~the last few chunks dominate, so the rate (and
    #: ETA) adapts to stragglers without whiplashing on one fast chunk.
    alpha = 0.3

    def __init__(self, total):
        self.total = int(total)
        self.rate = None
        self._origin = time.perf_counter()
        self._last = self._origin

    def beat(self, done):
        now = time.perf_counter()
        interval = now - self._last
        self._last = now
        instantaneous = 1.0 / interval if interval > 0 else 0.0
        if self.rate is None:
            self.rate = instantaneous
        else:
            self.rate += self.alpha * (instantaneous - self.rate)
        remaining = self.total - done
        eta = remaining / self.rate if self.rate and self.rate > 0 else None
        return {
            "event": "heartbeat",
            "done": int(done),
            "total": self.total,
            "rate_per_s": float(self.rate),
            "eta_s": None if eta is None else float(eta),
            "wall_s": now - self._origin,
        }


#: Seconds between writes of a run's status files while chunks complete
#: (see :class:`_StatusFiles`).
STATUS_HEARTBEAT_S = 1.0


class _StatusFiles:
    """Heartbeat-paced writer of ``progress.json`` and ``run.jsonl``.

    The chunk log is a run's durable record; the progress snapshot
    and the run log are status views of it.  Both are written when the
    run starts (:meth:`flush`), then by :meth:`beat` at most once per
    :data:`STATUS_HEARTBEAT_S` while chunks complete, and by
    :meth:`flush` again at the end of the run and before a campaign
    error propagates.  A kill therefore loses at most one heartbeat of
    run-log events -- never a chunk's telemetry, which lives in its
    chunk-log record.  Without a store every method is a no-op.
    """

    def __init__(self, store):
        self.store = store
        self.progress = None
        self.events = []
        self._written = None

    def log(self, events):
        """Buffer run-scoped events for the next write."""
        self.events.extend(events)

    def beat(self):
        """Write if a heartbeat has passed since the last write."""
        if (self._written is None
                or time.monotonic() - self._written >= STATUS_HEARTBEAT_S):
            self.flush()

    def flush(self):
        """Write the latest progress snapshot and the buffered events."""
        if self.store is None:
            return
        if self.progress is not None:
            self.store.write_progress(self.progress)
            self.progress = None
        if self.events:
            self.store.append_run_events(self.events)
            self.events = []
        self._written = time.monotonic()


def _chunk_events(record):
    """A worker's telemetry record -> the chunk's JSONL event list.

    The first line is the ``chunk`` summary event (timings, worker,
    merged sample metrics); the captured span events follow.
    """
    head = {
        key: value for key, value in record.items() if key != "events"
    }
    head["event"] = "chunk"
    return [head, *record.get("events", ())]


def _merged_campaign_metrics(store, records, prior_chunks):
    """Merge per-chunk metric registries into one campaign registry.

    ``records`` maps this run's chunks to their in-memory telemetry
    records; the ``chunk`` events of ``prior_chunks`` (completed before
    this run -- a resume folds the pre-kill chunks' metrics back in) are
    read from the store.  The merge runs in chunk-index order, so the
    result does not depend on completion order or on the kill/resume
    history.  Per-chunk wall/queue times are folded in as histograms,
    making straggler spread queryable from ``metrics.json`` alone.
    """
    heads = dict(records)
    for index in prior_chunks:
        for event in store.read_chunk_telemetry(index):
            if event.get("event") == "chunk":
                heads[index] = event
    merged = MetricsRegistry()
    for index in sorted(heads):
        event = heads[index]
        if event.get("metrics"):
            merged.merge(event["metrics"])
        if "wall_s" in event:
            merged.observe("chunk.wall_s", event["wall_s"])
        if "queue_wait_s" in event:
            merged.observe("chunk.queue_wait_s", event["queue_wait_s"])
    return merged


# ----------------------------------------------------------------------
# Run / resume
# ----------------------------------------------------------------------
def _provenance_record(reducer, executor):
    """Manifest provenance: who produced this store, with what."""
    import repro

    return {
        "package": "repro-date16",
        "package_version": getattr(repro, "__version__", "unknown"),
        "reducer": reducer.kind,
        "executor": getattr(executor, "name", type(executor).__name__),
    }


def run_campaign(spec, store=None, executor=None, progress=None,
                 reducer=None, telemetry=None, retry=None,
                 retry_quarantined=True):
    """Run (or finish) a campaign of any kind and return its result.

    The one execution/reduction path of the campaign engine: evaluates
    every not-yet-checkpointed chunk through the executor backend and
    folds all chunks into the reducer in chunk-index order -- folding
    the contiguous frontier as soon as its chunks are available, and
    (for checkpointable reducers with a store) snapshotting the
    reduction state after every fold so a resume restores the reduction
    rather than re-folding.  The result object is reducer-specific:
    :class:`CampaignResult` for ``"moments"``,
    :class:`~repro.campaign.sensitivity.SensitivityResult` for
    ``"jansen"``, :class:`~repro.campaign.reducer.SurrogateResult` for
    ``"pce"``.

    Parameters
    ----------
    spec:
        Any :class:`~repro.campaign.spec.CampaignSpec` (including
        :class:`~repro.campaign.sensitivity.SensitivitySpec`).
    store:
        Optional :class:`~repro.campaign.store.ArtifactStore` (or path);
        when given, completed chunks are checkpointed there and already
        checkpointed chunks are *not* recomputed -- calling
        ``run_campaign`` on a partially filled store is the resume path.
        Without a store, everything is kept in memory (no resume).
    executor:
        A registered backend name (``"serial"`` default, ``"process"``,
        ``"thread"``, or anything added via
        :func:`~repro.campaign.executor.register_backend`) or an
        :class:`~repro.campaign.executor.Executor` instance.
    progress:
        Optional ``progress(event)`` callback called after every chunk
        completion with the ``heartbeat`` telemetry event (``done`` /
        ``total`` chunks plus EWMA chunk rate and ETA).
    reducer:
        A :class:`~repro.campaign.reducer.Reducer` instance, a kind name,
        or a ``{"kind": ..., **options}`` dict; ``None`` falls back to
        the spec's ``reducer`` field and then to the spec kind's default
        (``"moments"`` / ``"jansen"``).
    telemetry:
        ``True``/``False`` forces per-chunk telemetry capture on/off for
        this run; ``None`` (default) follows the global flag
        (:func:`repro.telemetry.enabled`, env ``REPRO_TELEMETRY``).
        With a store, captured telemetry is persisted: each chunk's
        events inside its ``chunks.log`` record (the ``telemetry``
        member, written in the same append as the outputs), plus an
        append-only
        ``telemetry/run.jsonl`` and the merged
        ``telemetry/metrics.json``.
    retry:
        Optional fault-tolerance policy: a
        :class:`~repro.campaign.faults.RetryPolicy`, an int
        (``max_retries`` shorthand) or an options dict.  With one,
        failed chunks are retried per the policy, chunks that exhaust
        their retries are **quarantined** (recorded in the store's
        ``quarantine.json``, folded around, excluded from the
        statistics) and the campaign completes over the surviving
        samples.  ``None`` (default) keeps fail-fast: the first chunk
        error raises.  A policy without a seed inherits the campaign
        seed, so retry backoff jitter is reproducible per campaign.
    retry_quarantined:
        Whether chunks quarantined by a *previous* run of this store
        are re-evaluated (default) or left quarantined and folded
        around.  Only meaningful on the resume path.

    With a store, the runner first takes the store's exclusive lock
    (``lock.json``) and heartbeats it per completed chunk, so a second
    concurrent ``run_campaign`` on the same path raises
    :class:`CampaignError` instead of interleaving chunk writes; a lock
    left behind by a killed runner is detected as stale and broken.
    ``telemetry/progress.json`` and ``telemetry/run.jsonl`` are written
    at run start and end and at most once per
    :data:`STATUS_HEARTBEAT_S` in between, so a chunk costs one file
    write: the append of its record to ``chunks.log``.
    """
    if not isinstance(spec, CampaignSpec):
        raise CampaignError(
            f"expected a CampaignSpec, got {type(spec).__name__}"
        )
    if store is not None and not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    lock = None if store is None else store.acquire_lock()
    status = _StatusFiles(store)
    try:
        return _run_campaign_locked(
            spec, store, executor, progress, reducer, telemetry, retry,
            retry_quarantined, lock=lock, status=status,
        )
    except Exception:
        status.flush()
        raise
    finally:
        if lock is not None:
            lock.release()


def _run_campaign_locked(spec, store, executor, progress, reducer,
                         telemetry, retry, retry_quarantined, lock,
                         status):
    """The body of :func:`run_campaign`, with the store lock (when any)
    already held by the caller, writing its progress snapshots and run
    events through ``status``."""
    reducer = resolve_reducer(spec, reducer)
    executor = make_executor(executor)
    policy = RetryPolicy.normalize(retry)
    if policy is not None and policy.seed is None:
        policy = policy.replace(seed=spec.seed)
    capture = tracing.enabled() if telemetry is None else bool(telemetry)
    if store is not None:
        store.initialize(
            spec, provenance=_provenance_record(reducer, executor)
        )
        # ``initialize`` truncated a torn or corrupt log tail; with
        # validate=True a torn legacy chunk file counts as incomplete
        # too, and is recomputed, not fatal.
        completed = set(store.completed_chunks(validate=True))
        stored_quarantine = store.read_quarantine()
    else:
        completed = set()
        stored_quarantine = {}

    # Quarantine bookkeeping.  ``quarantined`` is this run's view:
    # chunks the reduction will fold *around*.  Previously quarantined
    # chunks are retried by default (they simply stay pending); with
    # ``retry_quarantined=False`` they keep their records and are
    # excluded from evaluation.  Retrying a quarantined chunk without a
    # retry policy still must not kill the run on a repeat failure, so
    # a zero-retry policy (one attempt, failures re-quarantine) is
    # implied in that case.
    quarantined = {}
    if stored_quarantine:
        stale = [index for index in stored_quarantine if index in completed]
        if stale:
            # A chunk cannot be both complete and quarantined; the
            # chunk record wins (a prior resume healed it mid-kill).
            store.discard_quarantined(stale)
            for index in stale:
                stored_quarantine.pop(index)
    if stored_quarantine and not retry_quarantined:
        quarantined = dict(stored_quarantine)
    elif stored_quarantine and policy is None:
        policy = RetryPolicy(max_retries=0, seed=spec.seed)

    def check_reducer_tolerates():
        if quarantined and not reducer.tolerates_missing_samples:
            raise CampaignError(
                f"{len(quarantined)} chunk(s) are quarantined but "
                f"reducer {reducer.kind!r} needs every sample of its "
                "structured design; resume to retry the quarantined "
                "chunks (or fix the model) before reducing"
            )

    check_reducer_tolerates()

    total = spec.num_chunks
    parameters = np.empty((spec.num_samples, spec.dimension))
    checkpointing = store is not None and reducer.checkpointable

    # Restore a matching reduction checkpoint: the reducer continues
    # bit-identically after the folded prefix instead of re-reading it.
    next_fold = 0
    if checkpointing:
        restored = store.read_reducer_state()
        if restored is not None:
            meta, arrays = restored
            folded = meta.get("next_chunk", 0)
            prefix = arrays.get("__parameters__")
            if (reducer.restores(meta.get("reducer"))
                    and meta.get("num_chunks") == total
                    and 0 < folded <= total
                    and prefix is not None
                    and prefix.shape
                    == (spec.chunk_indices(folded - 1).stop,
                        spec.dimension)):
                reducer.load_state_dict({
                    key: value for key, value in arrays.items()
                    if key != "__parameters__"
                })
                parameters[:prefix.shape[0]] = prefix
                next_fold = folded

    # Snapshot cadence: every chunk for short campaigns, else ~32 evenly
    # spaced snapshots plus the final one -- a resume re-folds at most
    # one interval from the chunk log (bit-identical by construction),
    # and checkpoint I/O stays linear instead of quadratic in the
    # campaign size.
    checkpoint_interval = max(1, total // 32)

    available = set(completed)
    memory_chunks = {}

    def read_chunk(chunk_index):
        if chunk_index in memory_chunks:
            result = memory_chunks.pop(chunk_index)
            return result.indices, result.parameters, result.outputs
        return store.read_chunk(chunk_index)

    persist_telemetry = capture and store is not None
    run_t0 = time.perf_counter()

    frontier_clean = True

    def fold_frontier():
        """Fold every available chunk at the frontier; returns the
        ``fold`` run events for the caller to log."""
        nonlocal next_fold, frontier_clean
        fold_events = []
        while next_fold < total and (
                next_fold in available or next_fold in quarantined):
            if next_fold not in available:
                # Quarantined chunk: fold *around* it.  Its samples are
                # excluded from the reduction, but the parameter matrix
                # still gets its deterministically regenerated rows so
                # downstream consumers see the complete design.  From
                # here the folded prefix is no longer contiguous, so
                # reducer-state snapshots stop (a snapshot's
                # ``next_chunk`` must mean "every chunk below is in") --
                # the clean-prefix snapshot already on disk stays valid.
                indices = np.asarray(
                    spec.chunk_indices(next_fold), dtype=int
                )
                parameters[indices] = campaign_parameters(spec, indices)
                frontier_clean = False
                next_fold += 1
                continue
            fold_start = time.perf_counter()
            indices, chunk_parameters, outputs = read_chunk(next_fold)
            reducer.fold(indices, outputs)
            parameters[indices] = chunk_parameters
            if persist_telemetry:
                fold_events.append({
                    "event": "fold",
                    "chunk": next_fold,
                    "wall_s": time.perf_counter() - fold_start,
                })
            next_fold += 1
            if checkpointing and frontier_clean and (
                    next_fold == total
                    or next_fold % checkpoint_interval == 0):
                # Only the folded-prefix rows go into the snapshot (the
                # frontier folds chunks in index order, so the prefix is
                # contiguous); the rest of the matrix is still garbage.
                stop = spec.chunk_indices(next_fold - 1).stop
                store.write_reducer_state(
                    {
                        "reducer": reducer.config_dict(),
                        "num_chunks": total,
                        "next_chunk": next_fold,
                    },
                    {"__parameters__": parameters[:stop],
                     **reducer.state_dict()},
                )
        return fold_events

    fold_events = fold_frontier()
    num_evaluated = 0
    chunk_retries = 0
    done = len(completed) + len(quarantined)
    heartbeat = _Heartbeat(total)

    def pulse(done_chunks):
        """One chunk-completion tick: EWMA heartbeat for the in-process
        callback, the progress snapshot for out-of-process status
        readers (written at the status heartbeat), and the store lock's
        liveness mtime."""
        event = heartbeat.beat(done_chunks)
        status.progress = {
            **event, "event": "progress", "walltime": time.time(),
        }
        if lock is not None:
            lock.heartbeat()
        if progress is not None:
            progress(event)

    # Initial snapshot: a pure re-reduce (everything checkpointed, no
    # pending chunks) never beats, but status readers still get an
    # accurate done/total immediately.
    status.progress = {
        "event": "progress",
        "done": int(done),
        "total": int(total),
        "rate_per_s": 0.0,
        "eta_s": None,
        "wall_s": 0.0,
        "walltime": time.time(),
    }
    telemetry_records = {}
    pending = [
        index for index in range(total)
        if index not in completed and index not in quarantined
    ]
    if persist_telemetry:
        status.log([*fold_events, {
            "event": "run_start",
            "total_chunks": total,
            "completed_chunks": len(completed),
            "walltime": time.time(),
        }])
    status.flush()
    if pending:
        chunks = campaign_chunks(spec, pending)
        for chunk in chunks:
            chunk.capture_telemetry = capture
        for result in executor.run_chunks(spec.scenario, chunks,
                                          policy=policy):
            chunk_retries += max(0, getattr(result, "attempts", 1) - 1)
            if isinstance(result, ChunkFailure):
                failure_record = result.record()
                quarantined[result.chunk_index] = failure_record
                if store is not None:
                    store.quarantine_chunk(
                        result.chunk_index, failure_record
                    )
                if persist_telemetry:
                    status.log([{
                        "event": "chunk_failed",
                        "chunk": result.chunk_index,
                        "attempts": int(result.attempts),
                        "error": result.error,
                        "samples": int(result.indices.size),
                    }])
                check_reducer_tolerates()
                done += 1
                pulse(done)
                status.log(fold_frontier())
                status.beat()
                continue
            num_evaluated += result.indices.size
            record = getattr(result, "telemetry", None)
            if record is not None:
                telemetry_records[result.chunk_index] = record
            if store is not None:
                # One log record holds the outputs and the telemetry.
                # It is written before the fold, so a reducer snapshot
                # never counts a chunk that is not on disk.
                store.write_chunk(
                    result,
                    events=(_chunk_events(record)
                            if persist_telemetry and record is not None
                            else None),
                )
            if store is None or result.chunk_index == next_fold:
                # The frontier chunk folds from memory just below.  With
                # a store, out-of-order completions wait on disk until
                # the frontier reaches them, so a straggler low-index
                # chunk cannot pile later chunks' outputs up in memory.
                memory_chunks[result.chunk_index] = result
            if result.chunk_index in stored_quarantine:
                # Healed on retry: drop the quarantine record (the
                # chunk record is already on disk, so a kill between the
                # two writes is repaired by the stale-record cleanup on
                # the next resume).
                stored_quarantine.pop(result.chunk_index, None)
                quarantined.pop(result.chunk_index, None)
                store.discard_quarantined([result.chunk_index])
            available.add(result.chunk_index)
            done += 1
            pulse(done)
            fold_events = fold_frontier()
            if persist_telemetry:
                complete = {
                    "event": "chunk_complete",
                    "chunk": result.chunk_index,
                    "done": done,
                    "total": total,
                }
                if record is not None:
                    complete["wall_s"] = record["wall_s"]
                    complete["worker"] = record["worker"]
                    if "queue_wait_s" in record:
                        complete["queue_wait_s"] = record["queue_wait_s"]
                status.log([complete, *fold_events])
            status.beat()
    if next_fold != total:
        raise CampaignError(
            f"internal error: only {next_fold} of {total} chunks were "
            "folded"
        )

    num_quarantined_samples = int(sum(
        len(record.get("indices", ()))
        for record in quarantined.values()
    ))
    if quarantined and num_quarantined_samples >= spec.num_samples:
        raise CampaignError(
            f"all {spec.num_samples} samples of campaign "
            f"{spec.name!r} were quarantined -- nothing to reduce; see "
            "quarantine.json for the failures"
        )

    result = reducer.finalize(spec, parameters, num_evaluated)
    if quarantined:
        result.quarantine = {
            index: quarantined[index] for index in sorted(quarantined)
        }
    if store is not None:
        summary = result.summary()
        if quarantined and "num_quarantined_chunks" not in summary:
            # Reducers whose summary() predates quarantine still get
            # the counts surfaced in summary.json and reports.
            summary["num_quarantined_chunks"] = len(quarantined)
            summary["num_quarantined_samples"] = num_quarantined_samples
        if persist_telemetry:
            merged = _merged_campaign_metrics(
                store, telemetry_records, completed
            )
            if policy is not None or quarantined:
                merged.increment("campaign.chunk_retries", chunk_retries)
                merged.increment(
                    "campaign.chunks_quarantined", len(quarantined)
                )
            store.write_telemetry_metrics(merged.as_dict())
            status.log([{
                "event": "run_complete",
                "total_chunks": total,
                "num_evaluated": int(num_evaluated),
                "wall_s": time.perf_counter() - run_t0,
            }])
        # The summary goes last: a store that has one also has its
        # final progress snapshot and its complete run log.
        status.flush()
        store.write_summary(summary)
    return result


def resume_campaign(store, executor=None, progress=None, reducer=None,
                    telemetry=None, retry=None, retry_quarantined=True):
    """Finish the campaign pinned in an existing store.

    Reads the spec from the manifest, evaluates only the missing chunks
    and reduces over all of them -- by construction this reproduces the
    uninterrupted result exactly (restoring a checkpointed reduction
    when one matches).  The reducer defaults to the pinned spec's, so
    resuming a sensitivity store returns a
    :class:`~repro.campaign.sensitivity.SensitivityResult`; pass
    ``reducer=`` to re-reduce the same chunks differently (e.g.
    ``{"kind": "pce", "degree": 4}`` fits the surrogate from existing
    checkpoints without a single fresh solve).

    Chunks quarantined by a previous run are retried by default (and
    un-quarantined when they now succeed); pass
    ``retry_quarantined=False`` to leave them quarantined and reduce
    around them.  ``retry`` takes the same policy values as
    :func:`run_campaign`.
    """
    if not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    if not store.exists():
        raise CampaignError(
            f"no campaign manifest at {store.path!r}; run 'run' first"
        )
    spec = store.load_spec()
    return run_campaign(
        spec, store=store, executor=executor, progress=progress,
        reducer=reducer, telemetry=telemetry, retry=retry,
        retry_quarantined=retry_quarantined,
    )
