"""DecodeService: bit-identity with serial decode, lifecycle, chunking.

The service is only worth having if its answers are *exactly* the
serial decoder's answers — these tests drive the golden corpus through
``DecodeService`` / ``decode_stream`` at several worker counts and
demand field-for-field equality, then verify the lifecycle contract
(owned pools die with the service; borrowed pools survive it).
"""

from __future__ import annotations

import dataclasses
import glob
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.decoder import FrameDecoder
from repro.core.encoder import FrameCodecConfig
from repro.core.layout import FrameLayout
from repro.io import read_png
from repro.io.trace import TraceWriter
from repro.serve import (
    OVERSUBSCRIBE_ENV,
    DecodeService,
    WorkerPool,
    close_shared_pools,
    shared_pool,
)

CORPUS_DIR = Path(__file__).parent.parent / "fixtures" / "corpus"


@pytest.fixture(autouse=True)
def _force_pooling(monkeypatch):
    # On a 1-core host the dispatchers (correctly) skip the pool
    # entirely; force real worker processes so this suite keeps
    # exercising the pooled path everywhere.
    monkeypatch.setenv(OVERSUBSCRIBE_ENV, "1")


def _decoder() -> FrameDecoder:
    layout = FrameLayout(grid_rows=24, grid_cols=44, block_px=8)
    return FrameDecoder(FrameCodecConfig(layout=layout, display_rate=10))


@pytest.fixture(scope="module")
def corpus_images() -> list[np.ndarray]:
    return [
        read_png(path).astype(np.float64) / 255.0
        for path in sorted(CORPUS_DIR.glob("*.png"))
    ]


def _comparable(results):
    return [None if r is None else dataclasses.asdict(r) for r in results]


class TestBitIdentity:
    def test_service_matches_serial(self, corpus_images):
        decoder = _decoder()
        serial = decoder.decode_stream(corpus_images, workers=1)
        with DecodeService(decoder, workers=2) as service:
            pooled = decoder.decode_stream(corpus_images, service=service)
        assert _comparable(pooled) == _comparable(serial)

    def test_decode_stream_identical_across_worker_counts(self, corpus_images):
        decoder = _decoder()
        images = corpus_images * 2
        serial = decoder.decode_stream(images, workers=1)
        two = decoder.decode_stream(images, workers=2)
        four = decoder.decode_stream(images, workers=4)
        assert _comparable(serial) == _comparable(two) == _comparable(four)
        close_shared_pools()

    def test_chunksize_does_not_change_results(self, corpus_images):
        decoder = _decoder()
        serial = decoder.decode_stream(corpus_images, workers=1)
        with DecodeService(decoder, workers=2) as service:
            one_by_one = decoder.decode_stream(
                corpus_images, service=service, chunksize=1
            )
            big_chunks = decoder.decode_stream(
                corpus_images, service=service, chunksize=4
            )
        assert _comparable(one_by_one) == _comparable(serial)
        assert _comparable(big_chunks) == _comparable(serial)

    def test_single_process_pool_decodes_serially(self, corpus_images, monkeypatch):
        # One effective process = no parallelism to buy back the frame
        # copies: decode_stream must not touch a pool at all.
        monkeypatch.delenv(OVERSUBSCRIBE_ENV, raising=False)
        monkeypatch.setattr("repro.serve.pool.available_cpus", lambda: 1)

        def _no_pool(workers):
            raise AssertionError("shared_pool must not be used at 1 process")

        monkeypatch.setattr("repro.serve.shared_pool", _no_pool)
        decoder = _decoder()
        fanned = decoder.decode_stream(corpus_images, workers=4)
        assert _comparable(fanned) == _comparable(
            decoder.decode_stream(corpus_images, workers=1)
        )

    def test_matches_pinned_corpus_expectations(self, corpus_images):
        expected = json.loads((CORPUS_DIR / "expected.json").read_text())
        names = [p.stem for p in sorted(CORPUS_DIR.glob("*.png"))]
        decoder = _decoder()
        with DecodeService(decoder, workers=2) as service:
            results = decoder.decode_stream(corpus_images, service=service)
        for name, result in zip(names, results):
            # decode_stream's None corresponds to a pinned decode failure.
            assert (result is not None) == expected[name]["decodes"], name


class TestSubmit:
    def test_submit_returns_future_per_batch(self, corpus_images):
        decoder = _decoder()
        serial = decoder.decode_stream(corpus_images, workers=1)
        with DecodeService(decoder, workers=2) as service:
            first = service.submit(corpus_images[:3])
            second = service.submit(corpus_images[3:])
            pooled = first.result(60) + second.result(60)
        assert _comparable(pooled) == _comparable(serial)

    def test_caller_arrays_safe_to_reuse_after_submit(self, corpus_images):
        decoder = _decoder()
        expected = _comparable(decoder.decode_stream(corpus_images[:1], workers=1))
        with DecodeService(decoder, workers=1) as service:
            scratch = corpus_images[0].copy()
            future = service.submit([scratch])
            scratch.fill(0.0)  # frames were staged at submit time
            assert _comparable(future.result(60)) == expected


class TestServiceChunksize:
    """Both service routes chunk by ``service.chunksize`` unless overridden."""

    @pytest.fixture
    def batch_sizes(self, monkeypatch):
        sizes: list[int] = []
        submit = WorkerPool.submit

        def spy(pool, fn, /, *, frames=None, **kwargs):
            sizes.append(len(frames))
            return submit(pool, fn, frames=frames, **kwargs)

        monkeypatch.setattr(WorkerPool, "submit", spy)
        return sizes

    def test_decode_stream_honours_service_chunksize(self, corpus_images, batch_sizes):
        decoder = _decoder()
        serial = decoder.decode_stream(corpus_images, workers=1)
        with DecodeService(decoder, workers=2, chunksize=3) as service:
            routed = decoder.decode_stream(corpus_images, service=service)
            assert batch_sizes == [3, 3]
            decoder.decode_stream(corpus_images, service=service, chunksize=4)
            assert batch_sizes == [3, 3, 4, 2]
        assert _comparable(routed) == _comparable(serial)

    def test_decode_trace_honours_service_chunksize(
        self, corpus_images, batch_sizes, tmp_path
    ):
        path = tmp_path / "corpus.rbtrace"
        with TraceWriter(path, chunk_frames=2) as writer:
            for i, image in enumerate(corpus_images):
                writer.append(image, i / 30.0)
        decoder = _decoder()
        serial = decoder.decode_stream(corpus_images, workers=1)
        with DecodeService(decoder, workers=2, chunksize=3) as service:
            replayed = decoder.decode_trace(path, service=service)
        assert batch_sizes == [3, 3]
        assert _comparable(replayed) == _comparable(serial)


class TestLifecycle:
    def test_owned_pool_dies_with_service(self):
        before = set(glob.glob("/dev/shm/psm_*"))
        service = DecodeService(_decoder(), workers=2)
        pool = service.pool
        service.close()
        assert pool.closed
        assert set(glob.glob("/dev/shm/psm_*")) == before

    def test_borrowed_pool_survives_service(self):
        with WorkerPool(1) as pool:
            service = DecodeService(_decoder(), pool=pool)
            service.close()
            assert not pool.closed

    def test_shared_constructor_uses_shared_pool(self):
        service = DecodeService.shared(_decoder(), workers=2)
        assert service.pool is shared_pool(2)
        service.close()  # borrowed: must not close the shared pool
        assert not shared_pool(2).closed
        close_shared_pools()

    def test_decode_stream_accepts_external_service(self, corpus_images):
        decoder = _decoder()
        serial = decoder.decode_stream(corpus_images, workers=1)
        with DecodeService(decoder, workers=2) as service:
            routed = decoder.decode_stream(corpus_images, service=service)
        assert _comparable(routed) == _comparable(serial)

    def test_map_ordered_empty(self):
        decoder = _decoder()
        with DecodeService(decoder, workers=1) as service:
            assert decoder.decode_stream([], service=service) == []
