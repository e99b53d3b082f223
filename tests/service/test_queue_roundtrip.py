"""Property: ``queue.json`` round-trips the in-memory queue after every op.

Random sequences of queue operations -- legal or not -- are applied to
one :class:`JobQueue`; after each, a fresh ``JobQueue(root)`` must load
the records the queue held at its last persisted mutation, in the same
order.  Every submission and transition persists, so the reload equals
the in-memory records except after ``mark_store``, which sets the store
in memory for the next persisted mutation to write.  A restart then
brings every ``running`` job back as ``queued``.  Files written in the
older indented JSON layout must still load.
"""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import ArtifactStore, run_campaign
from repro.errors import ServiceError
from repro.service import JobQueue

from tests.campaign.conftest import make_toy_spec

OPERATIONS = ("submit", "claim_next", "mark_store", "complete", "fail",
              "cancel")


def records(queue):
    return [job.to_dict() for job in queue.jobs()]


def apply(queue, operation, pick):
    """Apply one operation; returns whether it persisted the queue.  A
    transition the state machine refuses raises :class:`ServiceError`
    and must leave the queue unchanged."""
    jobs = queue.jobs()
    if operation == "submit":
        queue.submit(make_toy_spec(seed=pick),
                     tenant=("alice", "bob")[pick % 2])
        return True
    if operation == "claim_next":
        return queue.claim_next() is not None
    if not jobs:
        return False
    job_id = jobs[pick % len(jobs)].job_id
    if operation == "mark_store":
        queue.mark_store(job_id, f"stores/default/{job_id}")
        return False
    if operation == "complete":
        queue.complete(job_id)
    elif operation == "fail":
        queue.fail(job_id, f"error {pick}")
    else:
        queue.cancel(job_id)
    return True


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(OPERATIONS), st.integers(0, 7)),
                max_size=16))
def test_reload_matches_memory_after_every_operation(operations):
    with tempfile.TemporaryDirectory() as root:
        queue = JobQueue(root)
        persisted = []
        for operation, pick in operations:
            before = records(queue)
            try:
                if apply(queue, operation, pick):
                    persisted = records(queue)
            except ServiceError:
                assert records(queue) == before
            assert records(JobQueue(root)) == persisted

        running = {job.job_id: job.resumes
                   for job in queue.jobs(states=("running",))}
        restarted = JobQueue(root)
        recovered = restarted.recover_running()
        assert sorted(job.job_id for job in recovered) == sorted(running)
        for job in restarted.jobs():
            if job.job_id in running:
                assert job.state == "queued"
                assert job.resumes == running[job.job_id] + 1
        assert not restarted.jobs(states=("running",))
        assert records(JobQueue(root)) == records(restarted)


def test_indented_queue_file_still_loads(tmp_path):
    queue = JobQueue(tmp_path)
    queue.submit(make_toy_spec())
    queue.submit(make_toy_spec(seed=8), tenant="bob")
    queue.claim_next()
    with open(queue.path, encoding="utf-8") as handle:
        payload = json.load(handle)
    with open(queue.path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    assert records(JobQueue(tmp_path)) == records(queue)


def test_store_json_is_compact_and_indented_stores_still_load(tmp_path):
    """Store JSON is written compact (one line); a store whose JSON
    files were written indented reads back the same summary."""
    store = ArtifactStore(str(tmp_path / "store"))
    run_campaign(make_toy_spec(), store=store)
    summary = store.read_summary()
    with open(store.summary_path, encoding="utf-8") as handle:
        assert len(handle.read().splitlines()) == 1
    for directory, _, names in os.walk(store.path):
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
    reopened = ArtifactStore(str(tmp_path / "store"))
    assert reopened.read_summary() == summary
    run_campaign(make_toy_spec(), store=reopened)
    assert reopened.read_summary() == summary
