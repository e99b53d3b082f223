"""Event-driven service: the dispatcher and watchers are woken, not polled.

Nothing on the job path sleeps a fixed interval any more: the dispatcher
blocks until a submission, a job-thread exit or ``stop`` wakes it, and a
watcher blocks on the queue until a transition is persisted.  Each
bound below is far shorter than the interval a poller would have to
wait out, so a lost wakeup fails the test instead of only slowing it.
"""

import sys
import threading
import time

import pytest

from repro.service import JobManager

from tests.campaign.conftest import make_toy_spec

from .test_manager import wait_terminal


def test_watch_delivers_terminal_snapshot_without_waiting_interval(tmp_path):
    with JobManager(tmp_path / "svc") as manager:
        start = time.monotonic()
        job = manager.submit(make_toy_spec())
        snapshots = list(manager.watch(job.job_id, interval_s=30,
                                       timeout_s=60))
        elapsed = time.monotonic() - start
    assert snapshots[-1]["state"] == "completed"
    assert elapsed < 5.0


def test_idle_manager_starts_submitted_job(tmp_path):
    with JobManager(tmp_path / "svc") as manager:
        time.sleep(0.2)  # let the dispatcher go idle
        job = manager.submit(make_toy_spec())
        record = wait_terminal(manager, job.job_id, timeout_s=5.0)
    assert record.state == "completed"
    assert record.started_walltime - record.submitted_walltime < 5.0


def test_job_exit_frees_slot_for_queued_job(tmp_path):
    """With one worker slot, the second job starts when the first job's
    thread exits -- that exit is the only wakeup it gets."""
    with JobManager(tmp_path / "svc", max_workers=1) as manager:
        first = manager.submit(make_toy_spec())
        second = manager.submit(make_toy_spec(seed=8))
        assert wait_terminal(manager, first.job_id,
                             timeout_s=5.0).state == "completed"
        assert wait_terminal(manager, second.job_id,
                             timeout_s=5.0).state == "completed"


def test_concurrent_submitters_and_watchers_lose_no_wakeup(tmp_path):
    """More submitting and watching threads than cores, with frequent
    thread switches: every job still reaches its terminal snapshot.  A
    wakeup lost between the dispatcher's check and its wait would leave
    a job queued forever (the watch then times out)."""
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    errors, finals = [], []
    try:
        with JobManager(tmp_path / "svc", max_workers=3) as manager:
            def client(number):
                try:
                    for job_number in range(4):
                        job = manager.submit(
                            make_toy_spec(num_samples=6, chunk_size=3,
                                          seed=10 * number + job_number)
                        )
                        *_, final = manager.watch(job.job_id,
                                                  interval_s=30,
                                                  timeout_s=30)
                        finals.append(final["state"])
                except Exception as exc:  # reported by the assertion
                    errors.append(repr(exc))

            threads = [threading.Thread(target=client, args=(number,))
                       for number in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch_interval)
    assert errors == []
    assert finals == ["completed"] * 16


def test_stop_on_idle_manager_returns_promptly(tmp_path):
    manager = JobManager(tmp_path / "svc")
    manager.start()
    time.sleep(0.2)
    stopper = threading.Thread(target=manager.stop)
    stopper.start()
    stopper.join(1.0)
    assert not stopper.is_alive()


def test_restart_after_stop_still_dispatches(tmp_path):
    manager = JobManager(tmp_path / "svc")
    manager.start()
    manager.stop()
    manager.start()
    try:
        job = manager.submit(make_toy_spec())
        assert wait_terminal(manager, job.job_id,
                             timeout_s=5.0).state == "completed"
    finally:
        manager.stop()


def test_poll_interval_option_is_gone(tmp_path):
    with pytest.raises(TypeError):
        JobManager(tmp_path / "svc", poll_s=0.05)
