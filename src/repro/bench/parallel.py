"""Process-parallel trial execution.

The paper's own receiver is compute-bound: Section IV-D reports decode
time per frame for 1 vs 4 threads on the Galaxy S4.  Our benchmark
suite has the same shape — every sweep point repeats the same trial
over independent seeds — so the engine here fans those trials across
worker processes:

* **Determinism**: each job carries its own seed and RNG; jobs never
  share state, and results return in job order, so pooling them with
  :func:`repro.bench.runner.average_trials` is bit-identical to running
  the same jobs serially.
* **Worker resolution**: an explicit ``workers`` argument wins, then
  the ``REPRO_WORKERS`` environment variable, then the available cores
  (env/default values are clamped to the cores this process may
  actually schedule on — see :func:`repro.serve.resolve_workers`).
  Where only one process would run, the jobs run in-process with no
  pool, no pickling, no subprocesses.
* **Pool**: jobs run through :func:`repro.serve.map_ordered` on a
  persistent process pool, spawned once and reused by every batch.

The job functions (``run_rainbar_trial`` etc.) and their kwargs must be
picklable — true for every config dataclass in this repo.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..serve.pool import WORKERS_ENV, default_chunksize, map_ordered, resolve_workers

if TYPE_CHECKING:
    from .runner import TrialResult

__all__ = [
    "WORKERS_ENV",
    "resolve_workers",
    "run_trials_parallel",
    "sweep",
]


def run_trials_parallel(
    trial_fn: Callable[..., "TrialResult"],
    jobs: Sequence[dict],
    *,
    workers: int | None = None,
    chunksize: int | None = None,
) -> list["TrialResult"]:
    """Run ``trial_fn(**kwargs)`` for every kwargs dict in *jobs*.

    Results come back in job order regardless of completion order, so
    ``average_trials(run_trials_parallel(...))`` pools exactly the same
    counters as the serial loop it replaces.  ``chunksize`` groups
    consecutive jobs into one IPC message (default: ~4 chunks per
    worker); grouping is by contiguous runs, so result order is
    unchanged.
    """
    job_list = list(jobs)
    workers = resolve_workers(workers)
    if chunksize is None:
        chunksize = default_chunksize(len(job_list), workers)
    return list(map_ordered(trial_fn, job_list, workers=workers, chunksize=chunksize))


def sweep(
    trial_fn: Callable[..., "TrialResult"],
    points: Iterable[Sequence[dict]],
    *,
    workers: int | None = None,
    chunksize: int | None = None,
) -> list["TrialResult"]:
    """Run a whole sweep — many conditions x many seeds — on one pool.

    *points* is an iterable of job lists, one list per sweep condition
    (each job a kwargs dict for *trial_fn*).  Every (condition, seed)
    job fans across the same pool, so a sweep with few seeds per point
    still saturates the workers.  Returns one pooled
    :class:`TrialResult` per condition, in order.
    """
    from .runner import average_trials

    point_jobs = [list(jobs) for jobs in points]
    flat = [job for jobs in point_jobs for job in jobs]
    results = run_trials_parallel(trial_fn, flat, workers=workers, chunksize=chunksize)
    pooled: list["TrialResult"] = []
    cursor = 0
    for jobs in point_jobs:
        pooled.append(average_trials(results[cursor : cursor + len(jobs)]))
        cursor += len(jobs)
    return pooled
