"""Parallel trial engine: determinism and worker resolution.

The whole point of :mod:`repro.bench.parallel` is that fanning trials
across processes changes wall-clock time and nothing else: every seed
carries its own RNG, so pooled results must be *identical* — not
statistically similar — to a serial run.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

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
from repro.serve import OVERSUBSCRIBE_ENV


@pytest.fixture(autouse=True)
def _force_pooling(monkeypatch):
    # On a 1-core host the engine (correctly) skips the pool entirely;
    # force real worker processes so this suite keeps exercising the
    # pooled path everywhere.
    monkeypatch.setenv(OVERSUBSCRIBE_ENV, "1")


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
        # must run in-process without touching a pool.
        import repro.bench.parallel as parallel_mod

        monkeypatch.delenv(OVERSUBSCRIBE_ENV, raising=False)
        monkeypatch.setattr("repro.serve.pool.available_cpus", lambda: 1)

        def _no_pool(workers):
            raise AssertionError("shared_pool must not be used at 1 process")

        monkeypatch.setattr(parallel_mod, "shared_pool", _no_pool)
        jobs = _jobs([1, 2, 3])
        fanned = run_trials_parallel(run_rainbar_trial, jobs, workers=4)
        serial = run_trials_parallel(run_rainbar_trial, jobs, workers=1)
        for a, b in zip(fanned, serial):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)


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
