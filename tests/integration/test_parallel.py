"""Parallel trial engine and pooled decode: determinism, worker resolution.

The whole point of :mod:`repro.bench.parallel` is that fanning trials
across processes changes wall-clock time and nothing else: every seed
carries its own RNG, so pooled results must be *identical* — not
statistically similar — to a serial run.  The same holds for
``FrameDecoder.decode_stream`` on the golden corpus, at every worker
count and chunk size.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.bench import (
    average_trials,
    layout_for_block_size,
    paper_link_config,
    resolve_workers,
    run_rainbar_trial,
    run_trials_parallel,
    sweep,
)
from repro.bench.parallel import WORKERS_ENV
from repro.channel import FrameSchedule, ScreenCameraLink
from repro.core.decoder import FrameDecoder
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.core.layout import FrameLayout
from repro.io import read_png
from repro.serve import close_shared_pools
from repro.telemetry.metrics import MetricsRegistry

CORPUS_DIR = Path(__file__).parent.parent / "fixtures" / "corpus"


@pytest.fixture
def _force_pooling(monkeypatch):
    # On a 1-core host the engine (correctly) skips the pool entirely;
    # report four cores so this suite keeps exercising real worker
    # processes everywhere.
    monkeypatch.setattr("repro.serve.pool.available_cpus", lambda: 4)
    yield
    close_shared_pools()


def _jobs(seeds, num_frames=2):
    config = FrameCodecConfig(layout=layout_for_block_size(12), display_rate=10)
    return [
        dict(
            codec=config,
            link_config=paper_link_config(view_angle_deg=10.0),
            num_frames=num_frames,
            seed=seed,
        )
        for seed in seeds
    ]


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_fallback_clamped_to_cores(self, monkeypatch):
        from repro.serve import available_cpus

        cpus = available_cpus()
        monkeypatch.setenv(WORKERS_ENV, str(cpus))
        assert resolve_workers() == cpus
        # Asking for more than the host has warns once and clamps: on a
        # 1-core bench container extra processes are pure overhead.
        monkeypatch.setenv(WORKERS_ENV, str(cpus + 4))
        with pytest.warns(RuntimeWarning, match="exceeds"):
            assert resolve_workers() == cpus

    def test_env_within_cores_does_not_warn(self, monkeypatch):
        import warnings

        monkeypatch.setenv(WORKERS_ENV, "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers() == 1

    def test_default_is_clamped_cpu_count(self, monkeypatch):
        from repro.serve import available_cpus

        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == available_cpus() >= 1

    def test_floor_of_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError):
            resolve_workers()


@pytest.mark.usefixtures("_force_pooling")
class TestRunTrialsParallel:
    def test_parallel_matches_serial_exactly(self):
        jobs = _jobs([1, 2, 3])
        serial = run_trials_parallel(run_rainbar_trial, jobs, workers=1)
        fanned = run_trials_parallel(run_rainbar_trial, jobs, workers=2)
        assert len(serial) == len(fanned) == len(jobs)
        for a, b in zip(serial, fanned):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_pooled_averages_identical(self):
        jobs = _jobs([1, 2, 3, 4])
        serial = average_trials(run_trials_parallel(run_rainbar_trial, jobs, workers=1))
        fanned = average_trials(run_trials_parallel(run_rainbar_trial, jobs, workers=3))
        assert dataclasses.asdict(serial) == dataclasses.asdict(fanned)

    def test_preserves_job_order(self):
        jobs = _jobs([5, 1, 9])
        out = run_trials_parallel(run_rainbar_trial, jobs, workers=2)
        expected = [run_rainbar_trial(**job) for job in jobs]
        for a, b in zip(out, expected):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_empty_jobs(self):
        assert run_trials_parallel(run_rainbar_trial, [], workers=2) == []

    def test_chunksize_preserves_order(self):
        jobs = _jobs([5, 1, 9, 2])
        chunked = run_trials_parallel(run_rainbar_trial, jobs, workers=2, chunksize=3)
        expected = [run_rainbar_trial(**job) for job in jobs]
        for a, b in zip(chunked, expected):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_single_process_pool_degenerates_to_serial(self, monkeypatch):
        # One effective process = IPC with no parallelism: the engine
        # must run in-process without creating an executor.
        monkeypatch.setattr("repro.serve.pool.available_cpus", lambda: 1)

        def _no_executor(*args, **kwargs):
            raise AssertionError("no executor may be created at 1 process")

        monkeypatch.setattr("repro.serve.pool.ProcessPoolExecutor", _no_executor)
        jobs = _jobs([1, 2, 3])
        fanned = run_trials_parallel(run_rainbar_trial, jobs, workers=4)
        serial = run_trials_parallel(run_rainbar_trial, jobs, workers=1)
        for a, b in zip(fanned, serial):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)


@pytest.mark.usefixtures("_force_pooling")
class TestSweep:
    def test_sweep_matches_pointwise_serial(self):
        points = [_jobs([1, 2]), _jobs([3, 4], num_frames=1)]
        fanned = sweep(run_rainbar_trial, points, workers=2)
        serial = [
            average_trials([run_rainbar_trial(**job) for job in jobs]) for jobs in points
        ]
        assert len(fanned) == len(serial)
        for a, b in zip(fanned, serial):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)


@pytest.mark.usefixtures("_force_pooling")
class TestDecodeStream:
    def test_parallel_matches_serial(self):
        config = FrameCodecConfig(layout=layout_for_block_size(12), display_rate=10)
        encoder = FrameEncoder(config)
        payload = bytes(i % 256 for i in range(config.payload_bytes_per_frame))
        images = [encoder.encode_frame(payload, sequence=i).render() for i in range(2)]
        link = ScreenCameraLink(paper_link_config(), rng=np.random.default_rng(3))
        captures = link.capture_stream(FrameSchedule(images, 10))

        decoder = FrameDecoder(config)
        serial = decoder.decode_stream(captures, workers=1)
        fanned = decoder.decode_stream(captures, workers=2)
        assert len(serial) == len(fanned) == len(captures)
        for a, b in zip(serial, fanned):
            assert (a is None) == (b is None)
            if a is not None:
                assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_accepts_raw_images(self):
        config = FrameCodecConfig(layout=layout_for_block_size(12), display_rate=10)
        encoder = FrameEncoder(config)
        payload = bytes(i % 256 for i in range(config.payload_bytes_per_frame))
        image = encoder.encode_frame(payload, sequence=0).render()
        decoder = FrameDecoder(config)
        results = decoder.decode_stream([image], workers=1)
        assert len(results) == 1
        assert results[0] is not None and results[0].ok


def _corpus_decoder() -> FrameDecoder:
    # Must match tests/fixtures/regen_corpus.py's GRID.
    layout = FrameLayout(grid_rows=24, grid_cols=44, block_px=8)
    return FrameDecoder(FrameCodecConfig(layout=layout, display_rate=10))


@pytest.fixture(scope="module")
def corpus_stream():
    """The golden corpus twice over, as raw uint8 captures."""
    paths = sorted(CORPUS_DIR.glob("*.png"))
    return [p.stem for p in paths] * 2, [read_png(p) for p in paths] * 2


def _decode_collected(images, **kwargs):
    """decode_stream under a private registry: (results, det snapshot)."""
    registry = MetricsRegistry()
    with telemetry.scoped(registry=registry):
        results = _corpus_decoder().decode_stream(images, **kwargs)
    comparable = [None if r is None else dataclasses.asdict(r) for r in results]
    return comparable, registry.snapshot(include_timing=False)


@pytest.mark.usefixtures("_force_pooling")
@pytest.mark.parametrize(
    "workers, chunksize",
    [(1, None), (2, None), (4, None), (2, 1), (2, 3), (4, 4), (4, 5)],
)
def test_corpus_decode_stream_matches_serial(corpus_stream, workers, chunksize):
    """Pooled corpus decode == serial: results, failure stages, metrics."""
    names, images = corpus_stream
    serial = _decode_collected(images, workers=1)
    pooled = _decode_collected(images, workers=workers, chunksize=chunksize)
    assert pooled == serial
    # Failure stages ride in the deterministic snapshot's counters.
    assert any(k.startswith("decode.failures{stage=") for k in serial[1]["counters"])
    expected = json.loads((CORPUS_DIR / "expected.json").read_text())
    for name, result in zip(names, pooled[0]):
        assert (result is not None) == expected[name]["decodes"], name
