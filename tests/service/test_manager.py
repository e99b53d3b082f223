"""JobManager: concurrent campaigns, shared cache, restart recovery."""

import time

import pytest

from repro.campaign import run_campaign
from repro.errors import ServiceError
from repro.service import JobManager, JobQueue
from repro.solvers.cache import shared_cache

from tests.campaign.conftest import make_toy_spec

from .conftest import assert_stores_bitwise_equal, make_cached_spec


def wait_terminal(manager, job_id, timeout_s=60.0):
    """Poll until the job is terminal; returns its final record."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = manager.job(job_id)
        if job.terminal:
            return job
        time.sleep(0.02)
    raise AssertionError(
        f"job {job_id} still {manager.job(job_id).state} "
        f"after {timeout_s}s"
    )


class TestConcurrentJobs:
    def test_two_jobs_shared_cache_bitwise_identical(self, tmp_path):
        """Two concurrent jobs on one scenario share one factorization
        and still produce stores bitwise-identical to isolated runs."""
        spec = make_cached_spec(num_samples=20, chunk_size=5)
        before = shared_cache().stats()

        with JobManager(tmp_path / "svc", max_workers=2) as manager:
            job_a = manager.submit(spec, tenant="alice")
            job_b = manager.submit(spec, tenant="bob")
            assert wait_terminal(manager, job_a.job_id).state == "completed"
            assert wait_terminal(manager, job_b.job_id).state == "completed"
            store_a = manager.store_for(manager.job(job_a.job_id))
            store_b = manager.store_for(manager.job(job_b.job_id))

        after = shared_cache().stats()
        assert after["hits"] > before["hits"]

        run_campaign(spec, store=tmp_path / "reference")
        assert_stores_bitwise_equal(store_a.path, tmp_path / "reference")
        assert_stores_bitwise_equal(store_b.path, tmp_path / "reference")

    def test_stats_reports_cache_and_queue(self, tmp_path):
        with JobManager(tmp_path / "svc") as manager:
            job = manager.submit(make_toy_spec())
            wait_terminal(manager, job.job_id)
            stats = manager.stats()
        assert stats["jobs"]["completed"] == 1
        assert stats["max_workers"] == 2
        assert "hits" in stats["factorization_cache"]


class TestSubmissionBoundary:
    def test_unknown_option_rejected(self, tmp_path):
        manager = JobManager(tmp_path / "svc")
        with pytest.raises(ServiceError, match="unknown job option"):
            manager.submit(make_toy_spec(), options={"bogus": 1})

    def test_invalid_max_workers(self, tmp_path):
        with pytest.raises(ServiceError, match="max_workers"):
            JobManager(tmp_path / "svc", max_workers=0)

    def test_result_before_completion_raises(self, tmp_path):
        manager = JobManager(tmp_path / "svc")  # dispatcher not started
        job = manager.submit(make_toy_spec())
        with pytest.raises(ServiceError, match="no result available"):
            manager.result(job.job_id)


class TestFailure:
    def test_bad_executor_marks_job_failed(self, tmp_path):
        with JobManager(tmp_path / "svc") as manager:
            job = manager.submit(
                make_toy_spec(), options={"executor": "bogus-backend"}
            )
            record = wait_terminal(manager, job.job_id)
        assert record.state == "failed"
        assert "bogus-backend" in record.error
        with pytest.raises(ServiceError, match="failed"):
            manager.result(job.job_id)


class TestRestartRecovery:
    def test_start_resumes_interrupted_running_job(self, tmp_path):
        """A job left ``running`` by a killed service resumes from its
        store checkpoints and finishes bitwise-identical."""
        root = tmp_path / "svc"
        spec = make_toy_spec(num_samples=40, chunk_size=5)

        # Simulate the killed service: a claimed (running) job whose
        # store holds a partial run.
        queue = JobQueue(root)
        job = queue.submit(spec, tenant="alice")
        queue.claim_next()

        class Kill(RuntimeError):
            pass

        seen = [0]

        def killer(done, total):
            seen[0] += 1
            if seen[0] >= 3:
                raise Kill()

        manager = JobManager(root)
        store = manager.store_for(job)
        with pytest.raises(Kill):
            run_campaign(spec, store=store, progress=killer)
        partial = len(store.completed_chunks())
        assert 0 < partial < spec.num_chunks

        recovered = manager.start(recover=True)
        try:
            assert [record.job_id for record in recovered] == [job.job_id]
            record = wait_terminal(manager, job.job_id)
        finally:
            manager.stop(wait=True)
        assert record.state == "completed"
        assert record.resumes == 1

        run_campaign(spec, store=tmp_path / "reference")
        assert_stores_bitwise_equal(store.path, tmp_path / "reference")

    def test_queued_jobs_survive_restart(self, tmp_path):
        root = tmp_path / "svc"
        queue = JobQueue(root)
        job = queue.submit(make_toy_spec())
        with JobManager(root) as manager:
            record = wait_terminal(manager, job.job_id)
        assert record.state == "completed"

    def test_queued_numpy_array_backend_option_is_dropped(self, tmp_path):
        """A queue written when jobs could pick an array backend still
        runs its numpy jobs, bitwise like a job without the option."""
        root = tmp_path / "svc"
        spec = make_toy_spec()
        job = JobQueue(root).submit(spec, options={"array_backend": "numpy"})
        with JobManager(root) as manager:
            record = wait_terminal(manager, job.job_id)
            store = manager.store_for(record)
        assert record.state == "completed"
        run_campaign(spec, store=tmp_path / "reference")
        assert_stores_bitwise_equal(store.path, tmp_path / "reference")

    def test_queued_other_array_backend_fails_the_job(self, tmp_path):
        root = tmp_path / "svc"
        job = JobQueue(root).submit(
            make_toy_spec(), options={"array_backend": "cupy"}
        )
        with JobManager(root) as manager:
            record = wait_terminal(manager, job.job_id)
        assert record.state == "failed"
        assert "array backends were removed" in record.error


class TestWatch:
    def test_watch_yields_monotone_frontier_then_terminal(self, tmp_path):
        spec = make_toy_spec(num_samples=40, chunk_size=4)
        with JobManager(tmp_path / "svc") as manager:
            job = manager.submit(spec)
            snapshots = list(manager.watch(
                job.job_id, interval_s=0.02, timeout_s=60
            ))
        assert snapshots[-1]["state"] == "completed"
        frontiers = [
            snapshot.get("chunks_folded", 0) for snapshot in snapshots
        ]
        assert frontiers == sorted(frontiers)
        assert frontiers[-1] == spec.num_chunks

    def test_watch_timeout_raises(self, tmp_path):
        manager = JobManager(tmp_path / "svc")  # never started
        job = manager.submit(make_toy_spec())
        with pytest.raises(ServiceError, match="timed out"):
            for _ in manager.watch(job.job_id, interval_s=0.01,
                                   timeout_s=0.05):
                pass
