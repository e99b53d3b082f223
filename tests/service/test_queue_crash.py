"""Property: a service killed at any ``queue.json`` write recovers every job.

A kill (a ``BaseException``, so no handler in the program swallows it)
is injected before or after one ``mkstemp`` or ``os.replace`` of
``queue.json`` while jobs go through submit -> claim_next -> mark_store
-> complete, or -> fail for a job whose executor does not exist.  A
fresh :class:`JobManager` over the same root must then recover every
job -- after resubmitting the ones whose submission was never
acknowledged, as their client would -- and finish each with the state
and summary of an uninterrupted run.  ``mark_store`` writes nothing, so
a job killed before its next transition finds its store through the
namespace convention.

A real process killed right after its first ``queue.json`` ``mkstemp``
leaves a temp file named after its pid; the next service over the root
removes it, and never the temp files of a live writer.
"""

import contextlib
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import JobManager
from repro.service.jobs import spec_hash

from tests.campaign.conftest import make_toy_sensitivity_spec, make_toy_spec

#: (spec, job options): two campaigns that complete, one job that fails.
JOBS = (
    (make_toy_spec(num_samples=8, chunk_size=3, seed=1), {}),
    (make_toy_spec(num_samples=6, chunk_size=2, seed=2),
     {"executor": "bogus-backend"}),
    (make_toy_sensitivity_spec(num_base_samples=4, chunk_size=8), {}),
)

#: The service's steps: submit job ``i``, or claim and run the oldest
#: queued job.
PLAN = (("submit", 0), ("submit", 1), ("run", None), ("submit", 2),
        ("run", None), ("run", None))


class Killed(BaseException):
    """A simulated kill of the service process."""


@contextlib.contextmanager
def queue_writes(root, kill_at=None):
    """Count the ``queue.json`` filesystem operations under ``root``;
    kill before or after operation number ``kill_at[0]``."""
    queue_path = os.path.join(os.path.abspath(root), "queue.json")
    mkstemp, replace = tempfile.mkstemp, os.replace
    kinds = []

    def around(kind, operation, undo=None):
        number = len(kinds)
        kinds.append(kind)
        if kill_at == (number, "before"):
            raise Killed(f"before {kind} {number}")
        result = operation()
        if kill_at == (number, "after"):
            if undo is not None:
                undo(result)
            raise Killed(f"after {kind} {number}")
        return result

    def counted_mkstemp(*args, **kwargs):
        directory = kwargs.get("dir")
        if (directory is None or os.path.abspath(directory)
                != os.path.dirname(queue_path)):
            return mkstemp(*args, **kwargs)
        # A killed process closes its descriptors; the file stays.
        return around("mkstemp", lambda: mkstemp(*args, **kwargs),
                      undo=lambda made: os.close(made[0]))

    def counted_replace(source, target, *args, **kwargs):
        if os.path.abspath(target) != queue_path:
            return replace(source, target, *args, **kwargs)
        return around("replace",
                      lambda: replace(source, target, *args, **kwargs))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tempfile, "mkstemp", counted_mkstemp)
        patch.setattr(os, "replace", counted_replace)
        yield kinds


def serve(root, acknowledged):
    """Run :data:`PLAN` synchronously in this thread; ``acknowledged``
    collects the index of every job whose submission returned."""
    manager = JobManager(root)
    for step, index in PLAN:
        if step == "submit":
            spec, options = JOBS[index]
            manager.submit(spec, options=options)
            acknowledged.append(index)
            continue
        job = manager.queue.claim_next()
        assert job is not None
        manager._run_job(job)


def outcomes(manager):
    """``{spec hash: (state, summary or error)}`` of every job."""
    result = {}
    for job in manager.jobs():
        if job.state == "completed":
            outcome = manager.result(job.job_id)
            status = manager.status(job.job_id)
            assert status["progress"]["done"] == status["progress"]["total"]
        else:
            outcome = "bogus-backend" in (job.error or "")
        result.setdefault(job.spec_hash, set()).add(
            (job.state, repr(outcome)))
    return result


def finish(manager, timeout_s=60.0):
    """Start the dispatcher and wait until every job is terminal."""
    manager.start()
    try:
        deadline = time.monotonic() + timeout_s
        while not all(job.terminal for job in manager.jobs()):
            assert time.monotonic() < deadline, manager.jobs()
            time.sleep(0.01)
    finally:
        manager.stop(wait=True)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The uninterrupted run: its outcomes and queue operation count."""
    root = tmp_path_factory.mktemp("reference")
    with queue_writes(root) as kinds:
        serve(root, [])
    return outcomes(JobManager(root)), len(kinds)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kill_at_any_queue_write_then_restart_finishes_every_job(
        reference, data):
    expected, num_operations = reference
    # 9 persisted mutations: 3 submits, 3 claims, 2 completes, 1 fail.
    assert num_operations == 2 * 9
    kill_at = data.draw(st.tuples(
        st.integers(0, num_operations - 1),
        st.sampled_from(("before", "after"))), label="kill_at")
    with tempfile.TemporaryDirectory() as root:
        acknowledged = []
        with queue_writes(root, kill_at):
            with pytest.raises(Killed):
                serve(root, acknowledged)

        manager = JobManager(root)
        recorded = {job.spec_hash for job in manager.jobs()}
        for index in acknowledged:
            assert spec_hash(JOBS[index][0]) in recorded
        for index, (spec, options) in enumerate(JOBS):
            if index not in acknowledged:
                manager.submit(spec, options=options)
        finish(manager)

        assert outcomes(manager) == expected
        assert not manager.jobs(states=("queued", "running"))


#: A service process that submits one job and dies (``os._exit``, no
#: cleanup) right after the first ``mkstemp`` in the service root.
_DYING_SUBMIT = """
import os, sys, tempfile
from repro.service import JobManager
from tests.campaign.conftest import make_toy_spec

root = os.path.abspath(sys.argv[1])
mkstemp = tempfile.mkstemp

def dying_mkstemp(*args, **kwargs):
    made = mkstemp(*args, **kwargs)
    if os.path.abspath(kwargs.get("dir", "")) == root:
        os._exit(0)
    return made

tempfile.mkstemp = dying_mkstemp
JobManager(root).submit(make_toy_spec(num_samples=4, chunk_size=2))
"""


def test_killed_writer_temp_file_is_swept(tmp_path):
    repository = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    environment = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(repository, "src"), repository]))
    subprocess.run([sys.executable, "-c", _DYING_SUBMIT, str(tmp_path)],
                   cwd=repository, env=environment, check=True,
                   timeout=120)
    leaked = [name for name in os.listdir(tmp_path)
              if name.endswith(".tmp")]
    assert len(leaked) == 1 and leaked[0].startswith("queue.")
    assert not os.path.exists(tmp_path / "queue.json")
    # A live writer's temp file (this process's pid) must survive.
    live = tmp_path / f"queue.{os.getpid()}.inflight.tmp"
    live.write_text("{}")

    manager = JobManager(tmp_path)
    manager.start()
    manager.stop(wait=True)
    remaining = sorted(name for name in os.listdir(tmp_path)
                       if name.endswith(".tmp"))
    assert remaining == [live.name]
