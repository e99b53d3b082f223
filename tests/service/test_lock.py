"""Store lockfile hardening: O_EXCL acquire, stale detection, sweep."""

import json
import os
import socket
import threading

import pytest

from repro.campaign import ArtifactStore, StoreLock, run_campaign
from repro.errors import CampaignError

from tests.campaign.conftest import make_toy_spec


def write_foreign_lock(store, host="elsewhere", pid=12345, age_s=None):
    """Plant a lock file owned by another host, optionally backdated."""
    os.makedirs(store.path, exist_ok=True)
    with open(store.lock_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"pid": pid, "host": host, "created_walltime": 0.0}, handle
        )
    if age_s is not None:
        backdated = os.path.getmtime(store.lock_path) - age_s
        os.utime(store.lock_path, (backdated, backdated))


class TestStoreLock:
    def test_acquire_creates_owner_record(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        lock = store.acquire_lock()
        try:
            assert lock.held
            info = store.lock_owner()
            assert info["pid"] == os.getpid()
            assert info["host"] == socket.gethostname()
        finally:
            lock.release()
        assert not lock.held
        assert not os.path.exists(store.lock_path)

    def test_release_is_idempotent(self, tmp_path):
        lock = ArtifactStore(tmp_path / "s").acquire_lock()
        lock.release()
        lock.release()

    def test_second_acquire_raises_campaign_error(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        lock = store.acquire_lock()
        try:
            with pytest.raises(CampaignError, match="locked by"):
                store.acquire_lock()
        finally:
            lock.release()

    def test_context_manager(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        with StoreLock(store.lock_path) as lock:
            assert lock.held
            assert os.path.exists(store.lock_path)
        assert not os.path.exists(store.lock_path)

    def test_dead_pid_same_host_is_broken(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        write_foreign_lock(
            store, host=socket.gethostname(), pid=2**22 + 1
        )
        lock = store.acquire_lock()
        try:
            assert lock.held
            assert store.lock_owner()["pid"] == os.getpid()
        finally:
            lock.release()

    def test_live_foreign_lock_is_respected(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        write_foreign_lock(store)  # fresh mtime, unknown host
        with pytest.raises(CampaignError, match="locked by"):
            store.acquire_lock(stale_after_s=3600)

    def test_old_foreign_lock_is_broken(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        write_foreign_lock(store, age_s=7200)
        lock = store.acquire_lock(stale_after_s=3600)
        try:
            assert lock.held
        finally:
            lock.release()

    def test_unreadable_old_lock_is_broken(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        os.makedirs(store.path, exist_ok=True)
        with open(store.lock_path, "w", encoding="utf-8") as handle:
            handle.write('{"pid": 1')  # torn write of a dying owner
        backdated = os.path.getmtime(store.lock_path) - 7200
        os.utime(store.lock_path, (backdated, backdated))
        lock = store.acquire_lock(stale_after_s=3600)
        try:
            assert lock.held
        finally:
            lock.release()

    def test_heartbeat_refreshes_mtime(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        lock = store.acquire_lock()
        try:
            backdated = os.path.getmtime(store.lock_path) - 1000
            os.utime(store.lock_path, (backdated, backdated))
            lock.heartbeat()
            assert os.path.getmtime(store.lock_path) > backdated + 500
        finally:
            lock.release()


class TestRunnerLocking:
    def test_concurrent_run_campaign_raises(self, tmp_path):
        spec = make_toy_spec()
        store = ArtifactStore(tmp_path / "s")
        lock = store.acquire_lock()
        try:
            with pytest.raises(CampaignError, match="locked by"):
                run_campaign(spec, store=store)
        finally:
            lock.release()

    def test_lock_released_after_run(self, tmp_path):
        spec = make_toy_spec()
        store = ArtifactStore(tmp_path / "s")
        run_campaign(spec, store=store)
        assert not os.path.exists(store.lock_path)

    def test_lock_released_after_error(self, tmp_path):
        spec = make_toy_spec()
        store = ArtifactStore(tmp_path / "s")

        class Stop(RuntimeError):
            pass

        def progress(event):
            raise Stop()

        with pytest.raises(Stop):
            run_campaign(spec, store=store, progress=progress)
        assert not os.path.exists(store.lock_path)
        # and the store is resumable afterwards
        result = run_campaign(spec, store=store)
        assert result.num_samples == spec.num_samples

    def test_two_threads_one_store_one_winner(self, tmp_path):
        spec = make_toy_spec(num_samples=40, chunk_size=4)
        store_path = str(tmp_path / "s")
        errors, results = [], []
        barrier = threading.Barrier(2)

        def work():
            barrier.wait()
            try:
                results.append(run_campaign(spec, store=store_path))
            except CampaignError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 1
        assert len(errors) == 1
        assert "locked by" in str(errors[0])


class TestSweepGuard:
    def test_sweep_refuses_on_live_foreign_lock(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        write_foreign_lock(store)
        with pytest.raises(CampaignError, match="refusing to sweep"):
            store.sweep_temporaries()

    def test_sweep_allowed_under_own_lock(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        lock = store.acquire_lock()
        try:
            assert store.sweep_temporaries() == []
        finally:
            lock.release()

    def test_sweep_allowed_on_stale_lock(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        write_foreign_lock(store, host=socket.gethostname(),
                           pid=2**22 + 1)
        assert store.sweep_temporaries() == []

    def test_initialize_refuses_on_foreign_locked_store(self, tmp_path):
        spec = make_toy_spec()
        store = ArtifactStore(tmp_path / "s")
        write_foreign_lock(store)
        with pytest.raises(CampaignError):
            store.initialize(spec)
