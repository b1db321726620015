"""``map_ordered``: ordering, failure semantics, executor lifecycle.

The contract is blunt: results come back in job order whatever the
chunking, a job's exception surfaces with its own type, a dead worker
raises ``BrokenProcessPool`` instead of hanging (and the next call gets
a fresh executor), ``close_shared_pools()`` reaps every worker, and a
streaming job source is never pulled more than the in-flight window
ahead of the results.  Every test that needs real worker processes
reports two schedulable cores, so the suite exercises them on a
one-core host too.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.serve import (
    available_cpus,
    close_shared_pools,
    default_chunksize,
    map_ordered,
    resolve_workers,
)


@pytest.fixture
def _two_cores(monkeypatch):
    monkeypatch.setattr("repro.serve.pool.available_cpus", lambda: 2)
    close_shared_pools()  # start without executors left by other suites
    yield
    close_shared_pools()


def _shm_segments() -> set[str]:
    # Queue semaphores live here.
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


def _pid():
    time.sleep(0.05)
    return os.getpid()


# -- basic execution --------------------------------------------------------


@pytest.mark.usefixtures("_two_cores")
class TestExecution:
    def test_submit_roundtrip(self):
        out = map_ordered(_square, [{"x": i} for i in range(8)], workers=2)
        assert list(out) == [i * i for i in range(8)]

    def test_map_ordered_preserves_order(self):
        jobs = [{"x": i, "duration": 0.02 * (i % 3)} for i in range(10)]
        out = map_ordered(_sleep_then, jobs, workers=2, chunksize=3)
        assert list(out) == list(range(10))

    def test_map_ordered_empty(self):
        assert list(map_ordered(_square, [], workers=2)) == []

    def test_array_kwargs_roundtrip(self):
        a = np.arange(100, dtype=np.float64).reshape(10, 10)
        b = np.ones((480, 800, 3), dtype=np.uint8)
        out = map_ordered(_frame_total, [{"frames": [a, b], "offset": 0.5}], workers=2)
        assert list(out) == [[float(a.sum()) + 0.5, float(b.sum()) + 0.5]]

    def test_unpicklable_job_fails_at_submit(self):
        out = map_ordered(lambda: None, [{}], workers=2)
        # Python 3.11 reports a function-local lambda as AttributeError
        # ("Can't pickle local object"), a module-level one as
        # PicklingError; either way the very first result fails.
        with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
            next(out)
        # The executor itself is unharmed.
        assert list(map_ordered(_square, [{"x": 4}], workers=2)) == [16]

    def test_processes_capped_at_available_cores(self):
        pids = set(map_ordered(_pid, [{}] * 8, workers=available_cpus() + 3))
        assert 1 <= len(pids) <= 2
        assert os.getpid() not in pids
        assert len(multiprocessing.active_children()) == 2

    def test_no_executor_at_one_effective_process(self, monkeypatch):
        monkeypatch.setattr("repro.serve.pool.available_cpus", lambda: 1)

        def _no_executor(*args, **kwargs):
            raise AssertionError("no executor may be created at one process")

        monkeypatch.setattr("repro.serve.pool.ProcessPoolExecutor", _no_executor)
        out = map_ordered(_pid, [{}] * 3, workers=4)
        assert list(out) == [os.getpid()] * 3


# -- lifecycle and hygiene --------------------------------------------------


@pytest.mark.usefixtures("_two_cores")
class TestLifecycle:
    def test_close_terminates_workers_and_unlinks_shm(self):
        before = _shm_segments()
        frame = np.zeros((8, 8), dtype=np.float64)
        out = map_ordered(_frame_total, [{"frames": [frame], "offset": 1.0}], workers=2)
        assert list(out) == [[1.0]]
        assert multiprocessing.active_children()
        close_shared_pools()
        assert multiprocessing.active_children() == []
        assert _shm_segments() == before

    def test_close_is_idempotent(self):
        assert list(map_ordered(_square, [{"x": 2}], workers=2)) == [4]
        close_shared_pools()
        close_shared_pools()
        assert multiprocessing.active_children() == []

    def test_executor_reused_until_closed(self):
        first = set(map_ordered(_pid, [{}] * 4, workers=2))
        assert set(map_ordered(_pid, [{}] * 4, workers=2)) <= set(
            p.pid for p in multiprocessing.active_children()
        )
        close_shared_pools()
        second = set(map_ordered(_pid, [{}] * 4, workers=2))
        assert not first & second


# -- failure semantics ------------------------------------------------------


@pytest.mark.usefixtures("_two_cores")
class TestFailures:
    def test_job_exception_surfaces_and_pool_survives(self):
        jobs = [{"message": "nope"}]
        with pytest.raises(ValueError, match="nope") as info:
            list(map_ordered(_raise_value_error, jobs, workers=2))
        # The worker's own traceback rides along as the cause.
        assert "_raise_value_error" in str(info.value.__cause__)
        assert list(map_ordered(_square, [{"x": 6}], workers=2)) == [36]

    def test_worker_crash_fails_pending_jobs_not_hangs(self):
        jobs = [{"code": 3}, {"code": 3}]
        with pytest.raises(BrokenProcessPool):
            list(map_ordered(_hard_exit, jobs, workers=2))

    def test_broken_executor_replaced_on_next_call(self):
        with pytest.raises(BrokenProcessPool):
            list(map_ordered(_hard_exit, [{"code": 5}], workers=2))
        assert list(map_ordered(_square, [{"x": 3}], workers=2)) == [9]


# -- back-pressure ----------------------------------------------------------


@pytest.mark.usefixtures("_two_cores")
class TestBackPressure:
    def test_jobs_pulled_at_most_window_ahead(self):
        processes, chunksize = 2, 2
        pulled = []

        def jobs():
            for i in range(40):
                pulled.append(i)
                yield {"x": i, "duration": 0.2}

        out = map_ordered(_sleep_then, jobs(), workers=processes, chunksize=chunksize)
        assert next(out) == 0
        # While the workers sleep, only the in-flight window (plus the
        # chunk being assembled) may have been drawn from the source.
        assert len(pulled) <= (2 * processes + 1) * chunksize
        out.close()


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
