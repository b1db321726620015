"""Lazy decoder diagnostics: deferral, memoization, bit-identical values."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import telemetry
from repro.bench.workloads import default_codec, paper_link_config
from repro.channel.link import ScreenCameraLink
from repro.channel.screen import FrameSchedule
from repro.core import decoder as decoder_mod
from repro.core.decoder import DecodeDiagnostics, FrameDecoder
from repro.imaging.color import normalize_frame
from repro.telemetry import MetricsRegistry


@pytest.fixture(scope="module")
def capture():
    config = default_codec()
    from repro.core.encoder import FrameEncoder

    encoder = FrameEncoder(config)
    payload = (np.arange(config.payload_bytes_per_frame) % 256).astype(np.uint8).tobytes()
    image = encoder.encode_frame(payload, sequence=0).render()
    link = ScreenCameraLink(paper_link_config(), rng=np.random.default_rng(3))
    return config, link.capture_at(FrameSchedule([image], 10), 0.01)


@pytest.fixture(autouse=True)
def _reset_telemetry():
    yield
    telemetry.configure(None)


class TestConstructor:
    def test_keyword_compatible_with_old_dataclass(self):
        d = DecodeDiagnostics(
            t_value=0.4, block_size=12.0, locator_refinement=1.0,
            corner_purity=1.0, sharpness=0.5,
        )
        assert d.sharpness == 0.5
        assert d.sharpness_materialized
        assert d.stage_ms == {}
        assert d.failure is None

    def test_requires_value_or_thunk(self):
        with pytest.raises(ValueError, match="sharpness"):
            DecodeDiagnostics(t_value=0.0, block_size=0.0,
                              locator_refinement=0.0, corner_purity=0.0)

    def test_thunk_runs_once_and_memoizes(self):
        calls = []

        def thunk() -> float:
            calls.append(1)
            return 0.25

        d = DecodeDiagnostics(t_value=0.0, block_size=0.0, locator_refinement=0.0,
                              corner_purity=0.0, sharpness_fn=thunk)
        assert not d.sharpness_materialized
        assert d.sharpness == 0.25
        assert d.sharpness == 0.25
        assert len(calls) == 1
        assert d.sharpness_materialized


class TestDecoderLaziness:
    def test_sharpness_deferred_without_telemetry(self, capture, monkeypatch):
        config, cap = capture
        calls = []
        real = decoder_mod.sharpness_score
        monkeypatch.setattr(
            decoder_mod, "sharpness_score",
            lambda image: calls.append(1) or real(image),
        )
        extraction = FrameDecoder(config).extract(cap.image)
        assert calls == []  # no sharpness pass during extraction
        assert "diagnostics" not in extraction.diagnostics.stage_ms
        value = extraction.diagnostics.sharpness
        assert calls == [1]
        assert value == real(normalize_frame(cap.image))

    def test_sharpness_eager_with_telemetry(self, capture, monkeypatch):
        config, cap = capture
        calls = []
        real = decoder_mod.sharpness_score
        monkeypatch.setattr(
            decoder_mod, "sharpness_score",
            lambda image: calls.append(1) or real(image),
        )
        with telemetry.scoped(registry=MetricsRegistry()):
            extraction = FrameDecoder(config).extract(cap.image)
        assert calls == [1]
        assert extraction.diagnostics.sharpness_materialized
        assert "diagnostics" in extraction.diagnostics.stage_ms

    def test_lazy_and_eager_values_identical(self, capture):
        config, cap = capture
        decoder = FrameDecoder(config)
        lazy = decoder.extract(cap.image).diagnostics.sharpness
        with telemetry.scoped(registry=MetricsRegistry()):
            eager = decoder.extract(cap.image).diagnostics.sharpness
        assert lazy == eager  # bit-identical: same function, same input

    def test_failure_diagnostics_compute_sharpness_on_demand(self, capture):
        config, __ = capture
        extraction, diag = FrameDecoder(config).extract_diagnosed(
            np.zeros((40, 40, 3))
        )
        assert extraction is None
        assert diag.failure is not None
        assert not diag.sharpness_materialized
        assert diag.sharpness == 0.0  # flat image has zero edge energy

    def test_failure_sharpness_degrades_to_nan(self, capture):
        config, __ = capture
        bad = np.zeros((2, 2))  # wrong ndim: fails at the input stage
        extraction, diag = FrameDecoder(config).extract_diagnosed(bad)
        assert extraction is None
        assert diag.failure is not None and diag.failure.stage == "input"
        assert math.isnan(diag.sharpness) or diag.sharpness >= 0.0
