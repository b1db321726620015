"""Process-parallel execution with ordered, serial-identical results."""

from .pool import (
    WORKERS_ENV,
    available_cpus,
    close_shared_pools,
    default_chunksize,
    map_ordered,
    resolve_workers,
)

__all__ = [
    "WORKERS_ENV",
    "available_cpus",
    "resolve_workers",
    "default_chunksize",
    "map_ordered",
    "close_shared_pools",
]
