"""Blur assessment: scored once per capture, only where rows are ranked.

``FrameDecoder.extract`` leaves the blur score alone (the replay path
never ranks captures, so it must not pay for one), and
``StreamReassembler.add_capture`` ranks repeated rows by
``gradient_energy`` of the float frame the capture was decoded from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.bench.workloads import default_codec, paper_link_config
from repro.channel.link import ScreenCameraLink
from repro.channel.screen import FrameSchedule
from repro.core import sync as sync_mod
from repro.core.decoder import FrameDecoder
from repro.core.encoder import FrameEncoder
from repro.core.sync import StreamReassembler
from repro.imaging import metrics
from repro.imaging.color import normalize_frame
from repro.imaging.metrics import gradient_energy
from repro.telemetry import MetricsRegistry


@pytest.fixture(scope="module")
def capture():
    config = default_codec()
    encoder = FrameEncoder(config)
    payload = (np.arange(config.payload_bytes_per_frame) % 256).astype(np.uint8).tobytes()
    image = encoder.encode_frame(payload, sequence=0).render()
    link = ScreenCameraLink(paper_link_config(), rng=np.random.default_rng(3))
    return config, link.capture_at(FrameSchedule([image], 10), 0.01)


@pytest.fixture(autouse=True)
def _reset_telemetry():
    yield
    telemetry.configure(None)


@pytest.fixture
def scorer_calls(monkeypatch):
    """Records every blur-metric pass, however the metric was imported.

    ``gradient_energy`` reduces the frame through the module-level
    ``_intensity``, looked up at call time.
    """
    calls = []
    real = metrics._intensity
    monkeypatch.setattr(
        metrics, "_intensity", lambda image: calls.append(image) or real(image)
    )
    return calls


class TestExtractDoesNotScore:
    def test_extract_never_scores_blur_without_telemetry(self, capture, scorer_calls):
        config, cap = capture
        FrameDecoder(config).extract(cap.image)
        assert scorer_calls == []

    def test_extract_never_scores_blur_with_registry(self, capture, scorer_calls):
        config, cap = capture
        with telemetry.scoped(registry=MetricsRegistry()):
            FrameDecoder(config).extract(cap.image)
        assert scorer_calls == []


class TestReassemblerScore:
    def test_rank_score_is_gradient_energy_of_the_float_frame(self, capture, monkeypatch):
        config, cap = capture
        extraction = FrameDecoder(config).extract(cap.image)
        assert extraction.image is cap.image

        scores = []

        def recording(image):
            scores.append(gradient_energy(image))
            return scores[-1]

        monkeypatch.setattr(sync_mod, "gradient_energy", recording)
        reassembler = StreamReassembler(config)
        reassembler.add_capture(extraction)
        expected = gradient_energy(normalize_frame(cap.image))
        assert scores == [expected]  # one pass per capture, bit for bit

        # Rows of full confidence rank by the score itself.
        pending = reassembler._pending[extraction.header.sequence]
        full = np.flatnonzero(extraction.row_confidence == 1.0)
        ranked = [pending.row_quality[r] for r in full if r in pending.row_quality]
        assert ranked and all(q == expected for q in ranked)
