"""Persistent decode service: long-lived workers, shared-memory frames.

This subpackage is the fix for the parallel engine's negative scaling
(pre-service, 4 workers decoded at 0.38x of serial).  It
replaces the executor-per-call pattern with:

* :class:`WorkerPool` — workers spawned once (fork: warm caches), jobs
  over a bounded queue with back-pressure, results re-ordered to
  submission order (bit-identical to serial), processes capped at the
  host's schedulable cores unless explicitly oversubscribed;
* :mod:`~repro.serve.shm` — frames travel through generation-stamped
  shared-memory ring slots, zero-copy on the worker side;
* :class:`DecodeService` — batched/async decode API
  (``submit -> Future``, context-manager lifecycle); whole streams and
  traces run on its pool via ``FrameDecoder.decode_stream(...,
  service=svc)`` / ``decode_trace(..., service=svc)``;
* :func:`shared_pool` — the process-wide pool every bench/decode
  entry point reuses, so repeated batches stop paying spawn cost.
"""

from .pool import (
    OVERSUBSCRIBE_ENV,
    START_METHOD_ENV,
    WORKERS_ENV,
    JobFailedError,
    PoolClosedError,
    WorkerCrashError,
    WorkerPool,
    available_cpus,
    close_shared_pools,
    default_chunksize,
    effective_processes,
    resolve_workers,
    shared_pool,
)
from .service import DecodeService
from .shm import FrameRef, FrameRing, RingReader, StaleFrameError, inline_ref

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
    "DecodeService",
    "FrameRef",
    "FrameRing",
    "RingReader",
    "StaleFrameError",
    "inline_ref",
]
