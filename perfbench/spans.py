"""In-memory span recorder for the traced run, and the per-layer metrics.

The traced run installs wrappers around public functions and methods of
the program (:func:`install`); each call made while recording becomes a
:class:`Span` with its name, start, end, parent span, thread, and the
job and chunk it belongs to.  Spans stay in memory and are written out
once, at the end of the run.  Nothing here changes the program: the
wrappers are removed again by :meth:`Tracer.uninstall`.

A span's self time is its duration minus the time its child spans
cover.  Calls nest on one thread, so that is the duration minus the sum
of the children's durations.
"""

import functools
import itertools
import json
import os
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread", "job",
                 "chunk", "values")

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "start": self.start, "end": self.end, "thread": self.thread,
            "job": self.job, "chunk": self.chunk, **self.values,
        }


class Tracer:
    """Records spans while :attr:`recording` is true."""

    def __init__(self):
        self.spans = []
        self.recording = False
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, job=None, chunk=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span()
        span.id = next(self._ids)
        span.parent = parent.id if parent else None
        span.name = name
        span.thread = threading.get_ident()
        span.job = job if job is not None else getattr(parent, "job", None)
        span.chunk = (chunk if chunk is not None
                      else getattr(parent, "chunk", None))
        span.values = {}
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def record(self, name, start, end, job=None):
        """Add a span measured by the caller (client-side requests)."""
        if not self.recording:
            return
        span = Span()
        span.id = next(self._ids)
        span.parent = None
        span.name = name
        span.thread = threading.get_ident()
        span.job, span.chunk, span.values = job, None, {}
        span.start, span.end = start, end
        self.spans.append(span)

    def wrap(self, name, func, job=None, chunk=None, before=None,
             after=None):
        """``func`` recorded as span ``name`` while recording.

        ``job(args, kwargs)`` / ``chunk(args, kwargs)`` name the job or
        chunk the call serves; ``before(args)`` captures a state that
        ``after(span, args, result, state)`` turns into span values.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            state = before(args) if before else None
            with tracer.span(
                name,
                job=job(args, kwargs) if job else None,
                chunk=chunk(args, kwargs) if chunk else None,
            ) as span:
                result = func(*args, **kwargs)
                if after is not None:
                    after(span, args, result, state)
            return result

        return wrapper

    def patch_method(self, cls, attribute, name, **hooks):
        original = cls.__dict__[attribute]
        setattr(cls, attribute, self.wrap(name, original, **hooks))
        self._restore.append((cls, attribute, original))

    def patch_function(self, module, attribute, name, **hooks):
        """Wrap a module function and every ``from ... import`` alias of
        it in the program's modules, so callers see the wrapper."""
        original = getattr(module, attribute)
        wrapper = self.wrap(name, original, **hooks)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    self._restore.append((loaded, key, original))

    def uninstall(self):
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def _store_job(args, kwargs):
    store = kwargs.get("store", args[1] if len(args) > 1 else None)
    if store is None:
        return None
    return os.path.basename(os.fspath(getattr(store, "path", store)))


def _thread_minor_faults(args):
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


def _set(key, value_of):
    def after(span, args, result, state):
        span.values[key] = value_of(args, result, state)
    return after


def install(tracer):
    """Wrap the public calls at each layer boundary the benchmark reports."""
    from repro.campaign import executor, runner
    from repro.campaign.reducer import Reducer
    from repro.campaign.sensitivity import SensitivitySpec
    from repro.campaign.spec import CampaignSpec, ScenarioSpec
    from repro.campaign.store import ArtifactStore
    from repro.coupled.electrothermal import BlockedCoupledSolver
    from repro.fit.assembly import FITDiscretization
    from repro.service.jobs import JobQueue
    from repro.service.manager import JobManager
    from repro.solvers.cache import FactorizationCache
    from repro.solvers.woodbury import WoodburySolver

    tracer.patch_function(runner, "run_campaign", "campaign.run_campaign",
                          job=_store_job)
    tracer.patch_function(
        executor, "evaluate_chunk", "campaign.evaluate_chunk",
        chunk=lambda args, kwargs: args[1].chunk_index,
        before=_thread_minor_faults,
        after=_set("minor_faults", lambda args, result, state:
                   _thread_minor_faults(args) - state),
    )
    for method in ("write_chunk", "write_reducer_state", "write_progress",
                   "write_summary"):
        tracer.patch_method(
            ArtifactStore, method, "campaign.store_write",
            after=_set("bytes", lambda args, result, state:
                       os.path.getsize(result)),
        )
    reducers = list(Reducer.__subclasses__())
    while reducers:
        cls = reducers.pop()
        reducers.extend(cls.__subclasses__())
        for method in ("fold", "finalize"):
            if method in cls.__dict__:
                tracer.patch_method(cls, method, f"campaign.reducer_{method}")
    for cls in (CampaignSpec, SensitivitySpec):
        tracer.patch_method(cls, "unit_points", "uq.unit_points")
    tracer.patch_method(ScenarioSpec, "build_model", "package3d.build_model")
    tracer.patch_method(
        FactorizationCache, "factorize", "solvers.factorize",
        before=lambda args: args[0].misses,
        after=_set("misses", lambda args, result, state:
                   args[0].misses - state),
    )
    tracer.patch_method(WoodburySolver, "solve_batch", "solvers.solve_batch")

    def block_iterations(span, args, result, state):
        per_step = result.iterations_per_step
        span.values["iterations"] = int(per_step.sum())
        span.values["sample_steps"] = int(per_step.size)

    tracer.patch_method(BlockedCoupledSolver, "solve_transient_block",
                        "coupled.solve_transient_block",
                        after=block_iterations)
    tracer.patch_method(FITDiscretization, "cell_field_components",
                        "fit.cell_field_components")
    tracer.patch_method(FITDiscretization, "node_power_from_cells",
                        "fit.node_power_from_cells")
    for method in ("submit", "claim_next", "mark_store", "complete"):
        tracer.patch_method(JobQueue, method, "service.queue_op")
    tracer.patch_method(JobManager, "status", "service.status")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _median(values):
    return statistics.median(values) if values else 0.0


class _Totals:
    """Counts, durations, self times and values of the spans by name."""

    def __init__(self, spans):
        by_id = {span.id: span for span in spans}
        child_time = {}
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] = (
                    child_time.get(span.parent, 0.0) + span.duration
                )
        self.spans = {}
        self.total = {}
        self.self_time = {}
        for span in spans:
            self.spans.setdefault(span.name, []).append(span)
            self.self_time[span.name] = (
                self.self_time.get(span.name, 0.0)
                + span.duration - child_time.get(span.id, 0.0)
            )
            # A call nested in a call of the same name is already inside
            # the outer one's duration.
            ancestor = by_id.get(span.parent)
            while ancestor is not None and ancestor.name != span.name:
                ancestor = by_id.get(ancestor.parent)
            if ancestor is None:
                self.total[span.name] = (
                    self.total.get(span.name, 0.0) + span.duration
                )

    def count(self, name):
        return len(self.spans.get(name, ()))

    def durations(self, *names):
        return [span.duration for name in names
                for span in self.spans.get(name, ())]

    def value(self, name, key):
        return sum(span.values.get(key, 0)
                   for span in self.spans.get(name, ()))


def layer_metrics(spans, traced_units, untraced_units, job_records):
    """Per-layer metrics of the traced units.

    Totals are per traced unit of work (one campaign, or one service
    session of fixed size), so runs of different length compare.
    ``job_records`` are the service's job records of the traced units.
    """
    t = _Totals(spans)
    units = len(traced_units)

    def per_unit(value):
        return value / units

    iterations = t.value("coupled.solve_transient_block", "iterations")
    steps = t.value("coupled.solve_transient_block", "sample_steps")
    chunks = t.durations("campaign.evaluate_chunk")
    traced_rate = _median([unit.rate for unit in traced_units])
    untraced_rate = _median([unit.rate for unit in untraced_units])
    return {
        "package3d.model_build_s": per_unit(t.total.get(
            "package3d.build_model", 0.0)),
        "solvers.factorize_calls": per_unit(t.count("solvers.factorize")),
        "solvers.factorize_misses": per_unit(
            t.value("solvers.factorize", "misses")),
        "solvers.factorize_s": per_unit(t.total.get("solvers.factorize", 0.0)),
        "solvers.solve_batch_calls": per_unit(
            t.count("solvers.solve_batch")),
        "solvers.solve_batch_s": per_unit(
            t.total.get("solvers.solve_batch", 0.0)),
        "solvers.fixed_point_iterations_per_step": (
            iterations / steps if steps else 0.0),
        "coupled.solve_transient_block_self_s": per_unit(
            t.self_time.get("coupled.solve_transient_block", 0.0)),
        "fit.cell_field_components_calls": per_unit(
            t.count("fit.cell_field_components")),
        "fit.cell_field_components_s": per_unit(
            t.total.get("fit.cell_field_components", 0.0)),
        "fit.node_power_from_cells_s": per_unit(
            t.total.get("fit.node_power_from_cells", 0.0)),
        "campaign.chunk_latency_p50_s": _median(chunks),
        "campaign.chunk_latency_max_s": max(chunks, default=0.0),
        "campaign.minor_faults_per_chunk": (
            t.value("campaign.evaluate_chunk", "minor_faults") / len(chunks)
            if chunks else 0.0),
        "campaign.store_write_calls": per_unit(
            t.count("campaign.store_write")),
        "campaign.store_write_s": per_unit(
            t.total.get("campaign.store_write", 0.0)),
        "campaign.store_bytes_written": per_unit(
            t.value("campaign.store_write", "bytes")),
        "campaign.reducer_fold_s": per_unit(
            t.total.get("campaign.reducer_fold", 0.0)),
        "campaign.reducer_finalize_s": per_unit(
            t.total.get("campaign.reducer_finalize", 0.0)),
        "campaign.runner_self_s": per_unit(
            t.self_time.get("campaign.run_campaign", 0.0)),
        "uq.sample_generation_s": per_unit(
            t.total.get("uq.unit_points", 0.0)),
        "service.queue_wait_p50_s": _median([
            record.started_walltime - record.submitted_walltime
            for record in job_records if record.started_walltime]),
        "service.job_run_p50_s": _median([
            record.finished_walltime - record.started_walltime
            for record in job_records if record.finished_walltime]),
        "service.queue_ops": per_unit(t.count("service.queue_op")),
        "service.queue_op_s": per_unit(t.total.get("service.queue_op", 0.0)),
        "service.status_calls": per_unit(t.count("service.status")),
        "service.status_s": per_unit(t.total.get("service.status", 0.0)),
        "service.http_request_p50_s": _median(
            t.durations("http.submit", "http.watch_open")),
        "trace.unit_wall_s": _median([unit.wall_s for unit in traced_units]),
        "trace.spans": per_unit(len(spans)),
        "trace.traced_per_s": traced_rate,
        "trace.untraced_per_s": untraced_rate,
        "trace.overhead_pct": (
            100.0 * (untraced_rate / traced_rate - 1.0)
            if traced_rate else 0.0),
    }
