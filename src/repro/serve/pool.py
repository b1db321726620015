"""Long-lived worker pool: spawn once, feed over bounded queues.

The previous parallel engine paid a process-pool executor per *call*:
every batch re-spawned workers with cold capture caches and pickled
full frame arrays both ways, which is how 4 workers managed to run at
0.38x of serial in the pre-service decode benchmark.  This pool is the
fix and the substrate for the decode *service*:

* **workers are spawned once** (fork by default, so they inherit the
  parent's warm capture/warp caches) and fed jobs over a bounded
  ``multiprocessing.Queue`` — submitting past ``queue_depth`` blocks,
  which is the back-pressure that keeps a fast producer from buffering
  unbounded frames;
* **a job is pickled when it is submitted**, frames included (a
  480x800 uint8 capture pickles and unpickles in about a millisecond,
  against tens of milliseconds to decode it), so the
  caller may reuse its arrays as soon as :meth:`WorkerPool.submit`
  returns and an unpicklable job fails there, not in a feeder thread;
* **results return by job id** and are re-ordered to submission order,
  so pooled output is bit-identical to a serial run of the same jobs —
  the invariant every determinism suite in this repo asserts;
* **the pool never oversubscribes the host by default**: the requested
  worker count is a *concurrency ceiling*, and the number of actual
  processes is capped at the cores this process may schedule on
  (``os.sched_getaffinity``).  Because results are worker-count
  invariant, running 4 requested workers on 1 core as a single process
  changes wall-clock only — it avoids the pure scheduler/cache thrash
  that made oversubscribed runs ~1.5x slower than serial.  Set
  ``REPRO_POOL_OVERSUBSCRIBE=1`` (or ``oversubscribe=True``) to force
  one process per requested worker anyway.

Worker crashes are detected by a collector thread watching process
liveness: pending futures fail with :class:`WorkerCrashError` instead
of hanging forever.  ``close()`` drains gracefully, terminates
stragglers after a timeout and fails abandoned futures; a finalizer
covers pools that are never closed explicitly.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import queue as queue_mod
import threading
import traceback
import warnings
import weakref
from concurrent.futures import Future
from typing import Any, Callable, Iterable, Optional, Sequence

from .. import telemetry

__all__ = [
    "WORKERS_ENV",
    "OVERSUBSCRIBE_ENV",
    "START_METHOD_ENV",
    "available_cpus",
    "resolve_workers",
    "effective_processes",
    "default_chunksize",
    "PoolClosedError",
    "WorkerCrashError",
    "JobFailedError",
    "WorkerPool",
    "shared_pool",
    "close_shared_pools",
]

#: Environment variable read when ``workers`` is not given explicitly.
WORKERS_ENV = "REPRO_WORKERS"
#: Set truthy to spawn one process per requested worker even when that
#: exceeds the schedulable cores.
OVERSUBSCRIBE_ENV = "REPRO_POOL_OVERSUBSCRIBE"
#: Override the multiprocessing start method (default: fork when
#: available — workers inherit warm caches — else spawn).
START_METHOD_ENV = "REPRO_POOL_START"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


class PoolClosedError(RuntimeError):
    """The pool was closed (or is closing); the job was not run."""


class WorkerCrashError(RuntimeError):
    """A worker process died without returning its job's result."""


class JobFailedError(RuntimeError):
    """The job function raised inside the worker.

    Carries the original exception's type name and the worker-side
    traceback text; the pool itself stays usable.
    """

    def __init__(self, exc_type: str, message: str, worker_traceback: str):
        super().__init__(f"{exc_type}: {message}")
        self.exc_type = exc_type
        self.worker_traceback = worker_traceback

    def __str__(self) -> str:
        base = super().__str__()
        return f"{base}\n--- worker traceback ---\n{self.worker_traceback.rstrip()}"


def available_cpus() -> int:
    """Cores this process may actually schedule on (container-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers: Optional[int] = None) -> int:
    """Number of workers to use.  Always at least 1 (serial).

    Priority: explicit argument > ``REPRO_WORKERS`` env var >
    available cores.  The *defaults* (env var and core count) are
    clamped to :func:`available_cpus` — on a 1-core container there is
    nothing to win by fanning out, only spawn/scheduling overhead to
    lose — with a one-line warning when ``REPRO_WORKERS`` asks for
    more.  An explicit argument is taken at its word (callers like the
    1-vs-4-worker benchmark compare fixed counts on purpose; the pool
    itself still caps *processes* at the core count unless told to
    oversubscribe).
    """
    if workers is not None:
        return max(1, int(workers))
    cpus = available_cpus()
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        try:
            requested = int(env)
        except ValueError as exc:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
        if requested > cpus:
            warnings.warn(
                f"{WORKERS_ENV}={requested} exceeds the {cpus} available core(s); "
                f"clamping to {cpus}",
                RuntimeWarning,
                stacklevel=2,
            )
        return max(1, min(requested, cpus))
    return cpus


def effective_processes(workers: int) -> int:
    """Worker processes a :class:`WorkerPool` would actually run.

    Mirrors the pool's own cap — ``min(workers, available_cpus())``
    unless ``REPRO_POOL_OVERSUBSCRIBE`` forces one process per
    requested worker.  Dispatchers (``decode_stream``, the bench
    engine) consult this *before* touching a pool: when only one
    process would run, fanning out buys no parallelism and only pays
    the frame-copy/IPC tax, so they decode serially in-process instead
    (bit-identical by construction — jobs carry their own seeds).
    """
    requested = max(1, int(workers))
    if os.environ.get(OVERSUBSCRIBE_ENV, "").strip().lower() in _TRUTHY:
        return requested
    return min(requested, available_cpus())


def default_chunksize(num_jobs: int, workers: int) -> int:
    """Chunk small jobs so IPC amortizes: ~4 chunks per worker."""
    return max(1, -(-int(num_jobs) // (max(1, int(workers)) * 4)))


def _run_chunk(fn: Callable[..., Any], chunk: Sequence[dict[str, Any]]) -> list[Any]:
    """Worker-side chunk runner (module level => picklable)."""
    return [fn(**kwargs) for kwargs in chunk]


def _worker_main(
    jobs: Any,
    results: Any,
    initializer: Optional[Callable[..., None]],
    initargs: tuple[Any, ...],
) -> None:
    """Worker loop: jobs in, results out, until the ``None`` sentinel."""
    if initializer is not None:
        initializer(*initargs)
    worker = multiprocessing.current_process().name
    while True:
        item = jobs.get()
        if item is None:
            break
        job_id, job = item
        try:
            fn, kwargs = pickle.loads(job)
            results.put((job_id, True, fn(**kwargs), worker))
        except Exception as exc:
            results.put(
                (
                    job_id,
                    False,
                    (type(exc).__name__, str(exc), traceback.format_exc()),
                    worker,
                )
            )


def _finalize_pool(workers: list[Any]) -> None:
    """Last-resort cleanup for pools never closed explicitly."""
    for process in workers:
        if process.is_alive():
            process.terminate()


class WorkerPool:
    """Persistent process pool fed over a bounded job queue.

    ``workers`` follows :func:`resolve_workers`; the number of spawned
    *processes* is additionally capped at :func:`available_cpus` unless
    ``oversubscribe`` (see module docstring).  ``queue_depth`` bounds
    the in-flight job queue (back-pressure).

    Use as a context manager, or call :meth:`close` explicitly; both
    guarantee no worker process outlives the pool.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        queue_depth: Optional[int] = None,
        initializer: Optional[Callable[..., None]] = None,
        initargs: tuple[Any, ...] = (),
        start_method: Optional[str] = None,
        oversubscribe: Optional[bool] = None,
    ):
        self.requested = resolve_workers(workers)
        if oversubscribe is None:
            self.processes = effective_processes(self.requested)
        else:
            self.processes = (
                self.requested
                if oversubscribe
                else min(self.requested, available_cpus())
            )
        self.queue_depth = int(queue_depth) if queue_depth else 2 * self.processes

        method = start_method or os.environ.get(START_METHOD_ENV, "").strip()
        if not method:
            method = (
                "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            )
        ctx = multiprocessing.get_context(method)
        self.start_method = method
        self._jobs: Any = ctx.Queue(self.queue_depth)
        self._results: Any = ctx.Queue()
        self._workers = [
            ctx.Process(
                target=_worker_main,
                args=(self._jobs, self._results, initializer, initargs),
                daemon=True,
                name=f"repro-pool-{i}",
            )
            for i in range(self.processes)
        ]
        for process in self._workers:
            process.start()

        self._lock = threading.Lock()
        self._pending: dict[int, "Future[Any]"] = {}
        self._next_job = 0
        self._closed = False
        self._broken: Optional[str] = None
        self._stop_collector = False
        self._finalizer = weakref.finalize(self, _finalize_pool, self._workers)
        self._collector = threading.Thread(
            target=self._collect, daemon=True, name="repro-pool-collector"
        )
        self._collector.start()

    # -- introspection ---------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> Optional[str]:
        """Crash description when a worker died mid-job, else None."""
        return self._broken

    @property
    def pending_jobs(self) -> int:
        with self._lock:
            return len(self._pending)

    def _record_health(self) -> None:
        """Pool-health gauge for the live metrics registry, if any.

        All pool-health metrics are flagged ``timing=True``: queue depth
        is a scheduling artifact that depends on the worker count and
        host load, so it must never leak into deterministic
        (``include_timing=False``) snapshots — it is for
        ``metrics.json`` / ``repro telemetry report`` only.
        """
        registry = telemetry.registry()
        if registry:
            registry.gauge("serve.pool.pending_jobs", timing=True).set(self.pending_jobs)

    # -- submission ------------------------------------------------------

    def submit(self, fn: Callable[..., Any], /, **kwargs: Any) -> "Future[Any]":
        """Queue ``fn(**kwargs)`` on a worker.

        The job is pickled before this returns, so array arguments may
        be reused at once.  Blocks when the job queue is at
        ``queue_depth`` (back-pressure).  Returns a
        :class:`~concurrent.futures.Future` resolving to the job's
        return value, raising :class:`JobFailedError` /
        :class:`WorkerCrashError` on failure.
        """
        self._check_usable()
        job = pickle.dumps((fn, kwargs), protocol=pickle.HIGHEST_PROTOCOL)
        future: "Future[Any]" = Future()
        with self._lock:
            job_id = self._next_job
            self._next_job += 1
            self._pending[job_id] = future
        try:
            self._check_usable()
            while True:
                try:
                    self._jobs.put((job_id, job), timeout=0.1)
                    break
                except queue_mod.Full:
                    self._check_usable()
        except BaseException:
            with self._lock:
                self._pending.pop(job_id, None)
            raise
        registry = telemetry.registry()
        if registry:
            registry.counter("serve.pool.jobs_submitted", timing=True).inc()
        self._record_health()
        return future

    def map_ordered(
        self,
        fn: Callable[..., Any],
        jobs: Iterable[dict[str, Any]],
        *,
        chunksize: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> list[Any]:
        """Run ``fn(**kwargs)`` for every kwargs dict, results in job order.

        ``chunksize > 1`` groups consecutive jobs into one queue message
        so small jobs amortize IPC; grouping is by contiguous runs, so
        the flattened result order — and therefore every order-dependent
        fold downstream — is identical to serial execution.
        """
        job_list = [dict(kwargs) for kwargs in jobs]
        if not job_list:
            return []
        if chunksize is None:
            chunksize = default_chunksize(len(job_list), self.requested)
        if chunksize <= 1:
            futures = [self.submit(fn, **kwargs) for kwargs in job_list]
            return [future.result(timeout) for future in futures]
        chunks = [
            job_list[start : start + chunksize]
            for start in range(0, len(job_list), chunksize)
        ]
        chunk_futures = [self.submit(_run_chunk, fn=fn, chunk=chunk) for chunk in chunks]
        out: list[Any] = []
        for future in chunk_futures:
            out.extend(future.result(timeout))
        return out

    # -- lifecycle -------------------------------------------------------

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for every in-flight job, then :meth:`close`."""
        with self._lock:
            pending = list(self._pending.values())
        for future in pending:
            try:
                future.result(timeout)
            except Exception:
                pass  # the submitter sees the failure through its own future
        self.close()

    def close(self, timeout: float = 10.0) -> None:
        """Shut the pool down; idempotent.

        Lets workers drain what is already queued (sentinels go to the
        back of the queue), terminates anything still alive after
        *timeout*, and fails abandoned futures.
        """
        with self._lock:
            if self._closed:
                already = True
            else:
                already = False
                self._closed = True
        if already:
            return
        alive = [p for p in self._workers if p.is_alive()]
        for _ in alive:
            try:
                self._jobs.put(None, timeout=1.0)
            except queue_mod.Full:  # workers wedged; terminate below
                break
        for process in alive:
            process.join(timeout=timeout / max(1, len(alive)))
        for process in self._workers:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._stop_collector = True
        self._collector.join(timeout=2.0)
        failure: Exception = (
            WorkerCrashError(self._broken) if self._broken else PoolClosedError(
                "pool closed before the job completed"
            )
        )
        with self._lock:
            abandoned = list(self._pending.values())
            self._pending.clear()
        for future in abandoned:
            if not future.done():
                future.set_exception(failure)
        for q in (self._jobs, self._results):
            try:
                q.close()
                q.cancel_join_thread()
            except (OSError, AttributeError):  # pragma: no cover
                pass
        self._finalizer.detach()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- internals -------------------------------------------------------

    def _check_usable(self) -> None:
        if self._broken:
            raise WorkerCrashError(self._broken)
        if self._closed:
            raise PoolClosedError("cannot submit to a closed pool")

    def _collect(self) -> None:
        """Result drain loop: resolve futures, watch crashes."""
        while True:
            try:
                item = self._results.get(timeout=0.1)
            except queue_mod.Empty:
                if self._stop_collector:
                    return
                if self._broken is None and self.pending_jobs:
                    dead = [
                        p
                        for p in self._workers
                        if not p.is_alive() and p.exitcode not in (0, None)
                    ]
                    if dead:
                        self._mark_broken(
                            f"worker {dead[0].name} died with exit code "
                            f"{dead[0].exitcode} while jobs were pending"
                        )
                continue
            except (OSError, ValueError):  # queue closed under us
                return
            job_id, ok, payload, *rest = item
            worker = str(rest[0]) if rest else "unknown"
            with self._lock:
                future = self._pending.pop(job_id, None)
            registry = telemetry.registry()
            if registry:
                registry.counter(
                    "serve.pool.jobs_completed", timing=True, worker=worker
                ).inc()
            self._record_health()
            if future is None or future.done():
                continue
            if ok:
                future.set_result(payload)
            else:
                exc_type, message, worker_tb = payload
                future.set_exception(JobFailedError(exc_type, message, worker_tb))

    def _mark_broken(self, message: str) -> None:
        self._broken = message
        with self._lock:
            abandoned = list(self._pending.values())
            self._pending.clear()
        error = WorkerCrashError(message)
        for future in abandoned:
            if not future.done():
                future.set_exception(error)


# -- process-wide shared pools ----------------------------------------------

_SHARED_POOLS: dict[int, WorkerPool] = {}
_SHARED_LOCK = threading.Lock()


def shared_pool(workers: Optional[int] = None) -> WorkerPool:
    """The process-wide persistent pool for *workers* requested workers.

    Created on first use and reused by every later call with the same
    requested count — this is what turns per-batch engines
    (:func:`repro.bench.parallel.run_trials_parallel`,
    :meth:`repro.core.decoder.FrameDecoder.decode_stream`, the fault
    campaign) into clients of one long-lived decode service.  A broken
    or externally closed pool is transparently replaced.  All shared
    pools close at interpreter exit.
    """
    requested = resolve_workers(workers)
    with _SHARED_LOCK:
        pool = _SHARED_POOLS.get(requested)
        if pool is None or pool.closed or pool.broken:
            if pool is not None:
                pool.close()
            pool = WorkerPool(requested)
            _SHARED_POOLS[requested] = pool
        return pool


def close_shared_pools() -> None:
    """Close every process-wide shared pool (also runs atexit)."""
    with _SHARED_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.close()


atexit.register(close_shared_pools)
