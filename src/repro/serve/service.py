"""Batched decode service on top of the persistent worker pool.

:class:`DecodeService` binds one :class:`~repro.core.decoder.
FrameDecoder` to a :class:`~repro.serve.pool.WorkerPool` and exposes the
application-facing surface the paper's receiver scenario needs — a
screen-camera link that keeps producing captures while decode runs
elsewhere:

* :meth:`submit` — hand over a *batch* of frames, get a
  :class:`~concurrent.futures.Future` back immediately; the batch is
  pickled up front, so the caller may reuse or drop its arrays right
  away;
* whole streams and traces decode on the service's pool through
  ``decoder.decode_stream(captures, service=svc)`` and
  ``decoder.decode_trace(path, service=svc)``, chunked by
  :attr:`DecodeService.chunksize`;
* ``close``/``join`` and context-manager lifecycle: when the service
  *owns* its pool, closing the service tears the workers down; a
  service wrapping a shared pool leaves the pool running for the next
  caller.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Any, Optional, Sequence

import numpy as np

from ..core.decoder import FrameDecoder, decode_batch
from .pool import WorkerPool, shared_pool

__all__ = ["DecodeService"]


class DecodeService:
    """Asynchronous, batched decoding bound to one decoder.

    Parameters
    ----------
    decoder:
        The :class:`FrameDecoder` applied to every frame.  It is
        pickled with every submitted batch (it is a small config
        object; the frames are most of the bytes).
    workers:
        Requested concurrency, resolved like everywhere else
        (explicit > ``REPRO_WORKERS`` > cores).  Ignored when *pool*
        is given.
    pool:
        An existing :class:`WorkerPool` to run on.  The service does
        **not** close a pool it was handed — pass ``None`` (default)
        to own a private pool, or e.g. ``shared_pool(4)`` to join the
        process-wide service.
    chunksize:
        Default frames-per-job when ``decode_stream``/``decode_trace``
        run on this service; ``None`` picks ~4 chunks per requested
        worker.
    queue_depth:
        Forwarded to the private :class:`WorkerPool` (ignored with an
        external *pool*).
    """

    def __init__(
        self,
        decoder: FrameDecoder,
        workers: Optional[int] = None,
        *,
        pool: Optional[WorkerPool] = None,
        chunksize: Optional[int] = None,
        queue_depth: Optional[int] = None,
    ):
        self.decoder = decoder
        if pool is not None:
            self._pool = pool
            self._owns_pool = False
        else:
            self._pool = WorkerPool(workers, queue_depth=queue_depth)
            self._owns_pool = True
        self.chunksize = chunksize

    @classmethod
    def shared(
        cls, decoder: FrameDecoder, workers: Optional[int] = None
    ) -> "DecodeService":
        """A service view over the process-wide shared pool."""
        return cls(decoder, pool=shared_pool(workers))

    @property
    def pool(self) -> WorkerPool:
        return self._pool

    @property
    def workers(self) -> int:
        """Requested concurrency (the pool may run fewer processes)."""
        return self._pool.requested

    # -- decoding --------------------------------------------------------

    def submit(
        self, frames: Sequence[np.ndarray], *, with_metrics: bool = False
    ) -> Future[Any]:
        """Queue one batch of frames; resolves to per-frame results.

        The batch is pickled *before* this call returns (blocking for
        queue capacity — that is the back-pressure), so the caller's
        arrays are free to be reused.
        With ``with_metrics=True`` the future resolves to ``(results,
        per_capture_snapshots)`` instead (see :func:`decode_batch`).
        """
        arrays = [np.asarray(getattr(f, "image", f)) for f in frames]
        return self._pool.submit(
            decode_batch,
            frames=arrays,
            decoder=self.decoder,
            with_metrics=with_metrics,
        )

    # -- lifecycle -------------------------------------------------------

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for in-flight work, then :meth:`close`."""
        if self._owns_pool:
            self._pool.join(timeout)
        self.close()

    def close(self) -> None:
        """Release the service; closes the pool only when owned."""
        if self._owns_pool:
            self._pool.close()

    def __enter__(self) -> "DecodeService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
