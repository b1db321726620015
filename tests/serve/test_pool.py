"""WorkerPool lifecycle, ``/dev/shm`` hygiene, and failure semantics.

The decode service's contract is blunt: no worker process and no
``/dev/shm`` entry outlives ``close()``, a crashed worker fails its
jobs loudly instead of hanging, a job is pickled at submit (so the
caller may reuse its arrays), and submitting past the queue bound
blocks (back-pressure) rather than buffering unbounded frames.
Every test here is timeout-guarded — a hang is itself the failure mode
under test.
"""

from __future__ import annotations

import glob
import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    JobFailedError,
    PoolClosedError,
    WorkerCrashError,
    WorkerPool,
    available_cpus,
    close_shared_pools,
    default_chunksize,
    resolve_workers,
    shared_pool,
)


def _shm_segments() -> set[str]:
    # Shared-memory segments and named semaphores both live here.
    return set(glob.glob("/dev/shm/*"))


# -- module-level job functions (must be picklable) -------------------------


def _square(x):
    return x * x


def _frame_total(frames, offset):
    return [float(f.sum()) + offset for f in frames]


def _sleep_then(x, duration):
    time.sleep(duration)
    return x


def _hard_exit(code):
    os._exit(code)


def _raise_value_error(message):
    raise ValueError(message)


# -- basic execution --------------------------------------------------------


class TestExecution:
    def test_submit_roundtrip(self):
        with WorkerPool(2) as pool:
            futures = [pool.submit(_square, x=i) for i in range(8)]
            assert [f.result(30) for f in futures] == [i * i for i in range(8)]

    def test_map_ordered_preserves_order(self):
        with WorkerPool(2) as pool:
            out = pool.map_ordered(_square, [{"x": i} for i in range(10)], chunksize=3)
        assert out == [i * i for i in range(10)]

    def test_map_ordered_empty(self):
        with WorkerPool(2) as pool:
            assert pool.map_ordered(_square, []) == []

    def test_array_kwargs_roundtrip(self):
        with WorkerPool(2) as pool:
            a = np.arange(100, dtype=np.float64).reshape(10, 10)
            b = np.ones((480, 800, 3), dtype=np.uint8)
            got = pool.submit(_frame_total, frames=[a, b], offset=0.5).result(30)
            assert got == [float(a.sum()) + 0.5, float(b.sum()) + 0.5]

    def test_job_is_pickled_at_submit(self):
        with WorkerPool(1) as pool:
            blocker = pool.submit(_sleep_then, x=0, duration=0.3)
            frame = np.ones(16, dtype=np.uint8)
            future = pool.submit(_frame_total, frames=[frame], offset=0.0)
            frame.fill(0)  # the queued job already holds its own bytes
            assert blocker.result(30) == 0
            assert future.result(30) == [16.0]

    def test_unpicklable_job_fails_at_submit(self):
        with WorkerPool(1) as pool:
            with pytest.raises((pickle.PicklingError, AttributeError)):
                pool.submit(lambda: None)  # repro: noqa RB009
            assert pool.pending_jobs == 0
            assert pool.submit(_square, x=4).result(30) == 16

    def test_processes_capped_at_available_cores(self):
        with WorkerPool(available_cpus() + 3) as pool:
            assert pool.processes == available_cpus()
            assert pool.requested == available_cpus() + 3

    def test_oversubscribe_opt_in(self):
        with WorkerPool(2, oversubscribe=True) as pool:
            assert pool.processes == 2


# -- lifecycle and hygiene --------------------------------------------------


class TestLifecycle:
    def test_close_terminates_workers_and_unlinks_shm(self):
        before = _shm_segments()
        pool = WorkerPool(2)
        frame = np.zeros((8, 8), dtype=np.float64)
        assert pool.submit(_frame_total, frames=[frame], offset=1.0).result(30) == [1.0]
        workers = list(pool._workers)
        pool.close()
        deadline = time.monotonic() + 10
        while any(p.is_alive() for p in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(p.is_alive() for p in workers)
        assert _shm_segments() == before

    def test_close_is_idempotent(self):
        pool = WorkerPool(1)
        pool.close()
        pool.close()

    def test_submit_after_close_raises(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(PoolClosedError):
            pool.submit(_square, x=1)

    def test_context_manager_closes_on_exception(self):
        before = _shm_segments()
        with pytest.raises(RuntimeError, match="boom"):
            with WorkerPool(1) as pool:
                frame = np.zeros(4, dtype=np.float64)
                pool.submit(_frame_total, frames=[frame], offset=0.0).result(30)
                raise RuntimeError("boom")
        assert pool.closed
        assert _shm_segments() == before

    def test_join_waits_then_closes(self):
        pool = WorkerPool(1)
        future = pool.submit(_sleep_then, x=42, duration=0.2)
        pool.join(timeout=30)
        assert future.result(0) == 42
        assert pool.closed

    def test_shared_pool_reused_and_closed(self):
        first = shared_pool(2)
        assert shared_pool(2) is first
        close_shared_pools()
        assert first.closed
        second = shared_pool(2)
        assert second is not first and not second.closed
        close_shared_pools()


# -- failure semantics ------------------------------------------------------


class TestFailures:
    def test_job_exception_surfaces_and_pool_survives(self):
        with WorkerPool(1) as pool:
            failing = pool.submit(_raise_value_error, message="nope")
            with pytest.raises(JobFailedError, match="ValueError: nope") as info:
                failing.result(30)
            assert "worker traceback" in str(info.value)
            # The worker is still alive and serving.
            assert pool.submit(_square, x=6).result(30) == 36

    def test_worker_crash_fails_pending_jobs_not_hangs(self):
        before = _shm_segments()
        pool = WorkerPool(1)
        doomed = pool.submit(_hard_exit, code=3)
        with pytest.raises(WorkerCrashError, match="exit code 3"):
            doomed.result(30)
        with pytest.raises(WorkerCrashError):
            pool.submit(_square, x=1)
        pool.close()
        assert _shm_segments() == before

    def test_shared_pool_replaces_broken_pool(self):
        pool = shared_pool(1)
        with pytest.raises(WorkerCrashError):
            pool.submit(_hard_exit, code=5).result(30)
        replacement = shared_pool(1)
        assert replacement is not pool
        assert replacement.submit(_square, x=3).result(30) == 9
        close_shared_pools()


# -- back-pressure ----------------------------------------------------------


class TestBackPressure:
    def test_submit_blocks_at_queue_depth(self):
        with WorkerPool(1, queue_depth=1) as pool:
            # Occupy the single worker, then fill the single queue slot.
            blocker = pool.submit(_sleep_then, x=0, duration=1.0)
            queued = pool.submit(_sleep_then, x=1, duration=0.0)

            submitted = threading.Event()

            def overflow():
                pool.submit(_sleep_then, x=2, duration=0.0)
                submitted.set()

            thread = threading.Thread(target=overflow, daemon=True)
            thread.start()
            # While the worker sleeps, the third submit must be blocked.
            assert not submitted.wait(0.3), "submit did not apply back-pressure"
            assert blocker.result(30) == 0
            assert submitted.wait(30), "submit never unblocked"
            thread.join(30)
            assert queued.result(30) == 1


# -- worker resolution -------------------------------------------------------


class TestResolveWorkers:
    def test_env_clamped_with_warning(self, monkeypatch):
        cpus = available_cpus()
        monkeypatch.setenv("REPRO_WORKERS", str(cpus + 2))
        with pytest.warns(RuntimeWarning, match="exceeds"):
            assert resolve_workers() == cpus

    def test_explicit_not_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert resolve_workers(available_cpus() + 7) == available_cpus() + 7

    def test_default_chunksize_shape(self):
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(16, 4) == 1
        assert default_chunksize(64, 4) == 4
        assert default_chunksize(100, 1) == 25
