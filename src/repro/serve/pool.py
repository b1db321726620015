"""Process-parallel job execution on persistent executors.

Jobs are independent — each carries its own seed, frames and config —
so :func:`map_ordered` can fan them over worker processes and yield
results in job order, bit-identical to a serial run.  One
``ProcessPoolExecutor`` per process count is created on first use
(fork where the platform has it, so workers start with the parent's
warm caches; else spawn) and reused by every later call; one that
breaks is dropped and replaced on the next call, and
:func:`close_shared_pools` shuts them all down, also at exit.  A job's
exception re-raises with its own type and the worker's traceback as
``__cause__``; a worker that dies raises ``BrokenProcessPool``.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import warnings
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .. import telemetry

__all__ = [
    "WORKERS_ENV",
    "available_cpus",
    "resolve_workers",
    "default_chunksize",
    "map_ordered",
    "close_shared_pools",
]

#: Environment variable read when ``workers`` is not given explicitly.
WORKERS_ENV = "REPRO_WORKERS"


def available_cpus() -> int:
    """Cores this process may actually schedule on (container-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers: Optional[int] = None) -> int:
    """Number of workers to use.  Always at least 1 (serial).

    Priority: explicit argument > ``REPRO_WORKERS`` env var >
    available cores.  The env var and core-count defaults are clamped
    to :func:`available_cpus` (with a warning when ``REPRO_WORKERS``
    asks for more); an explicit argument is taken at its word, though
    :func:`map_ordered` still caps *processes* at the core count.
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


def default_chunksize(num_jobs: int, workers: int) -> int:
    """Chunk small jobs so IPC amortizes: ~4 chunks per worker."""
    return max(1, -(-int(num_jobs) // (max(1, int(workers)) * 4)))


_EXECUTORS: dict[int, ProcessPoolExecutor] = {}
_LOCK = threading.Lock()


def _executor(processes: int) -> ProcessPoolExecutor:
    """The persistent executor running *processes* workers."""
    with _LOCK:
        executor = _EXECUTORS.get(processes)
        if executor is None:
            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            context = multiprocessing.get_context(method)
            executor = ProcessPoolExecutor(processes, mp_context=context)
            _EXECUTORS[processes] = executor
        return executor


def _discard(processes: int, executor: ProcessPoolExecutor) -> None:
    """Forget a broken executor so the next call starts a fresh one."""
    with _LOCK:
        if _EXECUTORS.get(processes) is executor:
            del _EXECUTORS[processes]
    executor.shutdown(wait=False, cancel_futures=True)


def close_shared_pools() -> None:
    """Shut down every persistent executor and reap its workers."""
    with _LOCK:
        executors = list(_EXECUTORS.values())
        _EXECUTORS.clear()
    for executor in executors:
        executor.shutdown(wait=True, cancel_futures=True)


atexit.register(close_shared_pools)


def _run_chunk(fn: Callable[..., Any], chunk: Sequence[dict[str, Any]]) -> tuple[str, list[Any]]:
    """Worker-side chunk runner: ``(worker label, results)``."""
    return f"repro-pool-{os.getpid()}", [fn(**kwargs) for kwargs in chunk]


def map_ordered(
    fn: Callable[..., Any],
    jobs: Iterable[dict[str, Any]],
    *,
    workers: Optional[int] = None,
    chunksize: int = 1,
) -> Iterator[Any]:
    """Yield ``fn(**kwargs)`` for every kwargs dict in *jobs*, in job order.

    ``chunksize`` consecutive jobs travel in one message, so small jobs
    amortize IPC; *jobs* is pulled lazily, at most ``2 x processes``
    chunks ahead of the result being yielded.  *fn* and every job are
    pickled, so *fn* must be a module-level function.

    Pool-health metrics (``serve.pool.*``) are timing-flagged: they
    describe this run's scheduling and never enter deterministic
    snapshots.
    """
    processes = min(resolve_workers(workers), available_cpus())
    if processes <= 1:
        for kwargs in jobs:
            yield fn(**kwargs)
        return
    executor = _executor(processes)
    registry = telemetry.registry()
    window: deque[Future[tuple[str, list[Any]]]] = deque()
    job_iter = iter(jobs)
    try:
        while chunk := list(islice(job_iter, max(1, chunksize))):
            window.append(executor.submit(_run_chunk, fn, chunk))
            if registry:
                registry.counter("serve.pool.jobs_submitted", timing=True).inc()
                registry.gauge("serve.pool.pending_jobs", timing=True).set(len(window))
            if len(window) >= 2 * processes:
                yield from _drain(window, registry)
        while window:
            yield from _drain(window, registry)
    except BrokenProcessPool:
        _discard(processes, executor)
        raise
    finally:
        for future in window:
            future.cancel()


def _drain(window: deque[Future[tuple[str, list[Any]]]], registry: Any) -> list[Any]:
    """Wait for the oldest in-flight chunk and return its results."""
    worker, results = window.popleft().result()
    if registry:
        registry.counter("serve.pool.jobs_completed", timing=True, worker=worker).inc()
        registry.gauge("serve.pool.pending_jobs", timing=True).set(len(window))
    return results
