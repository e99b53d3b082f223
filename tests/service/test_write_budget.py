"""The file writes one job costs, pinned as counts.

A job's per-chunk bookkeeping is one durable write, the append of its
record to ``chunks.log``: ``progress.json`` and ``run.jsonl`` are
written at run start and end (and at most once per status heartbeat in
between), and ``JobQueue.mark_store`` rides on the next ``queue.json``
rewrite.  The counts below are what one job makes; a change that adds a
write per chunk or per job fails here.
"""

import contextlib
import os
import tempfile

import pytest

from repro.campaign import ArtifactStore, SensitivitySpec, run_campaign
from repro.campaign.spec import ScenarioSpec
from repro.service import JobManager
from repro.uq.analytic import MODULE as ANALYTIC_MODULE
from repro.uq.analytic import ishigami_distribution

from tests.campaign.conftest import make_toy_spec


class WriteCounter:
    """Atomic file writes (``mkstemp`` + ``os.replace``) by target path,
    ``run.jsonl`` appends, ``queue.json`` rewrites, and the creations of
    and ``os.write`` calls to ``chunks.log`` files."""

    def __init__(self):
        self.temporaries = []
        self.written = []
        self.appends = 0
        self.log_created = []
        self.log_writes = 0
        self.log_descriptors = set()

    @property
    def queue_rewrites(self):
        return sum(os.path.basename(path) == "queue.json"
                   for path in self.written)

    def written_under(self, directory):
        directory = os.path.abspath(str(directory))
        return [path for path in self.written
                if path.startswith(directory + os.sep)]


@contextlib.contextmanager
def counted_writes():
    counter = WriteCounter()
    mkstemp, replace = tempfile.mkstemp, os.replace
    open_, write, close = os.open, os.write, os.close
    append = ArtifactStore.append_run_events

    def counting_mkstemp(*args, **kwargs):
        made = mkstemp(*args, **kwargs)
        counter.temporaries.append(made[1])
        return made

    def counting_replace(source, target, *args, **kwargs):
        counter.written.append(os.path.abspath(str(target)))
        return replace(source, target, *args, **kwargs)

    def counting_append(store, events):
        counter.appends += 1
        return append(store, events)

    def counting_open(path, flags, *args, **kwargs):
        is_log = os.path.basename(os.fspath(path)) == "chunks.log"
        existed = is_log and os.path.exists(path)
        descriptor = open_(path, flags, *args, **kwargs)
        if is_log and flags & os.O_APPEND:
            counter.log_descriptors.add(descriptor)
            if not existed:
                counter.log_created.append(os.path.abspath(path))
        return descriptor

    def counting_write(descriptor, data):
        if descriptor in counter.log_descriptors:
            counter.log_writes += 1
        return write(descriptor, data)

    def counting_close(descriptor):
        counter.log_descriptors.discard(descriptor)
        return close(descriptor)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tempfile, "mkstemp", counting_mkstemp)
        patch.setattr(os, "replace", counting_replace)
        patch.setattr(os, "open", counting_open)
        patch.setattr(os, "write", counting_write)
        patch.setattr(os, "close", counting_close)
        patch.setattr(ArtifactStore, "append_run_events", counting_append)
        yield counter


def ishigami_job_spec(seed=5):
    """The service benchmark's job: 64 base samples, 5 chunks of 64."""
    return SensitivitySpec(
        name="write-budget-ishigami",
        scenario=ScenarioSpec(problem="ishigami", module=ANALYTIC_MODULE),
        distribution=ishigami_distribution(),
        dimension=3,
        num_base_samples=64,
        seed=seed,
        chunk_size=64,
        reducer="jansen",
    )


def test_five_chunk_ishigami_job_write_budget(tmp_path):
    spec = ishigami_job_spec()
    assert spec.num_chunks == 5
    root = tmp_path / "svc"
    with counted_writes() as counter:
        manager = JobManager(root)
        job = manager.submit(spec)
        claimed = manager.queue.claim_next()
        assert claimed.job_id == job.job_id
        manager._run_job(claimed)
    record = manager.job(job.job_id)
    assert record.state == "completed"
    store = manager.store_for(record)
    written = [os.path.relpath(path, store.path)
               for path in counter.written_under(store.path)]
    # job.json, the manifest, progress.json at start and end,
    # metrics.json and summary.json: 6 atomic file creations (11 when
    # every chunk had its own file, 15 when every chunk also rewrote
    # progress.json).
    assert sorted(written) == sorted([
        "job.json", "manifest.json",
        os.path.join("telemetry", "progress.json"),
        os.path.join("telemetry", "progress.json"),
        os.path.join("telemetry", "metrics.json"),
        "summary.json",
    ])
    assert len(counter.temporaries) == len(counter.written)
    # The chunks: one chunks.log creation and one append per chunk, and
    # no chunks/ directory.
    assert counter.log_created == [os.path.abspath(store.chunk_log.path)]
    assert counter.log_writes == 5
    assert not os.path.exists(os.path.join(store.path, "chunks"))
    # run_start with the run's first events, then the rest with
    # run_complete (one append per chunk before).
    assert counter.appends <= 2
    # submit, claim and complete; mark_store no longer rewrites it.
    assert counter.queue_rewrites == 3
    status = manager.status(job.job_id)
    assert status["progress"]["done"] == status["progress"]["total"] == 5
    kinds = [event["event"] for event in store.read_run_events()]
    assert kinds[0] == "run_start" and kinds[-1] == "run_complete"
    assert kinds.count("chunk_complete") == kinds.count("fold") == 5


def test_single_chunk_moments_campaign_writes_no_more(tmp_path):
    """A one-chunk campaign (a Date16 benchmark unit) makes six atomic
    writes -- manifest, reducer snapshot, two progress snapshots,
    metrics and summary -- one chunk-log append and at most three
    run-log appends."""
    spec = make_toy_spec(num_samples=8, chunk_size=8)
    assert spec.num_chunks == 1
    store = ArtifactStore(tmp_path / "store")
    with counted_writes() as counter:
        run_campaign(spec, store=store, telemetry=True)
    assert len(counter.written_under(store.path)) <= 6
    assert counter.log_writes == 1
    assert counter.appends <= 3
    assert store.read_progress()["done"] == 1
