"""COBRA baseline: layout accounting, codec roundtrip, decode pipeline."""

import numpy as np
import pytest

from repro.baselines.cobra import (
    CobraConfig,
    CobraDecoder,
    CobraEncoder,
    CobraLayout,
    CobraReceiver,
)
from repro.channel.link import LinkConfig, ScreenCameraLink
from repro.channel.screen import FrameSchedule
from repro.core.decoder import DecodeError
from repro.imaging.color import normalize_frame
from repro.imaging.filters import gaussian_blur


@pytest.fixture(scope="module")
def config():
    return CobraConfig(layout=CobraLayout(34, 60, 12), display_rate=10)


@pytest.fixture(scope="module")
def encoder(config):
    return CobraEncoder(config)


@pytest.fixture(scope="module")
def payload(config):
    rng = np.random.default_rng(0)
    return bytes(rng.integers(0, 256, config.payload_bytes_per_frame, dtype=np.uint8))


@pytest.fixture(scope="module")
def frame(encoder, payload):
    return encoder.encode_frame(payload, sequence=4)


class TestLayout:
    def test_paper_code_area_formula(self):
        # Section III-B: COBRA's code area is (cols - 6)(rows - 6).
        layout = CobraLayout(34, 60, 12)
        assert len(layout.data_cells) == (60 - 6) * (34 - 6)

    def test_s4_grid_matches_paper_10857(self):
        assert len(CobraLayout(83, 147, 13).data_cells) == 10857

    def test_four_trb_borders(self):
        layout = CobraLayout(34, 60, 12)
        trbs = layout.trb_cells
        assert set(trbs) == {"left", "right", "top", "bottom"}
        assert np.all(trbs["left"][:, 1] == 0)
        assert np.all(trbs["top"][:, 0] == 0)
        # TRBs sit on every second border cell, phase-locked to col/row 2.
        assert trbs["top"][0].tolist() == [0, 2]
        assert np.all(np.diff(trbs["top"][:, 1]) == 2)

    def test_capacity_below_rainbar(self, config):
        from repro.core.encoder import FrameCodecConfig
        from repro.core.layout import FrameLayout

        rainbar = FrameCodecConfig(layout=FrameLayout(34, 60, 12))
        assert config.layout.data_capacity_bytes < rainbar.layout.data_capacity_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            CobraLayout(34, 40, 12)
        with pytest.raises(ValueError):
            CobraLayout(8, 60, 12)


class TestRendering:
    def test_quiet_zone(self, frame, config):
        img = frame.render()
        pad = config.layout.block_px
        height, width = config.layout.size_px
        assert img.shape == (height + 2 * pad, width + 2 * pad, 3)
        assert np.all(img[:pad] == 1.0)
        assert np.all(img[:, :pad] == 1.0)

    def test_corner_rings(self, frame, config):
        grid = frame.grid
        # tl green(3), tr red(2), br green(3), bl blue(4); centers black.
        assert grid[2, 2] == 0 and grid[1, 1] == 3
        assert grid[2, 57] == 0 and grid[1, 58] == 2
        assert grid[31, 57] == 0 and grid[32, 58] == 3
        assert grid[31, 2] == 0 and grid[32, 1] == 4


class TestDecode:
    def test_pristine_roundtrip(self, config, frame, payload):
        result = CobraDecoder(config).decode_capture(frame.render())
        assert result.ok
        assert result.sequence == 4
        assert result.payload == payload

    def test_through_channel_frontal(self, config, frame, payload):
        sched = FrameSchedule([frame.render()], display_rate=10)
        link = ScreenCameraLink(LinkConfig(), rng=np.random.default_rng(1))
        cap = link.capture_at(sched, 0.01)
        result = CobraDecoder(config).decode_capture(cap.image)
        assert result.ok and result.payload == payload

    def test_fails_at_high_view_angle(self, config, frame):
        # COBRA's linear line-intersection localization drifts off the
        # blocks under strong perspective (paper Fig. 3) — RainBar
        # survives the same capture (tests/core/test_decoder.py).
        sched = FrameSchedule([frame.render()], display_rate=10)
        link = ScreenCameraLink(
            LinkConfig(view_angle_deg=30.0), rng=np.random.default_rng(2)
        )
        cap = link.capture_at(sched, 0.01)
        try:
            result = CobraDecoder(config).decode_capture(cap.image)
            assert not result.ok
        except DecodeError:
            pass

    def test_blank_raises(self, config):
        with pytest.raises(DecodeError):
            CobraDecoder(config).decode_capture(np.full((480, 800, 3), 0.5))


class TestReceiver:
    @staticmethod
    def _captures(config, encoder, payload, sequence):
        """A sharp capture of frame *sequence* and a blurred copy of it."""
        frame = encoder.encode_frame(payload, sequence=sequence)
        sched = FrameSchedule([frame.render()], display_rate=10)
        link = ScreenCameraLink(LinkConfig(), rng=np.random.default_rng(3))
        sharp = link.capture_at(sched, 0.01).image
        return sharp, gaussian_blur(normalize_frame(sharp), 1.5)

    @staticmethod
    def _decoded_images(receiver, monkeypatch):
        """The images the receiver hands to ``decode_capture``, in order."""
        seen = []
        real = receiver.decoder.decode_capture
        monkeypatch.setattr(
            receiver.decoder, "decode_capture", lambda image: seen.append(image) or real(image)
        )
        return seen

    def test_blur_assessment_picks_sharp_capture(self, config, encoder, payload, monkeypatch):
        # A 1.5 px blur still decodes, so only the image handed to
        # decode_capture shows which capture won, in either order.
        sharp, blurry = self._captures(config, encoder, payload, sequence=0)
        for order in ((blurry, sharp), (sharp, blurry)):
            receiver = CobraReceiver(CobraDecoder(config))
            decoded = self._decoded_images(receiver, monkeypatch)
            for image in order:
                receiver.offer(image)
            assert receiver.dropped_captures == 0  # both were read and ranked
            (result,) = receiver.results()
            assert result.ok and result.payload == payload
            assert len(decoded) == 1
            assert np.array_equal(decoded[0], normalize_frame(sharp))

    def test_keeps_sharpest_of_three_captures(self, config, encoder, payload, monkeypatch):
        # Blurry, then sharp (takes over), then a milder blur that is still
        # softer than the sharp capture and so must not displace it.
        sharp, blurry = self._captures(config, encoder, payload, sequence=0)
        milder = gaussian_blur(normalize_frame(sharp), 0.8)
        receiver = CobraReceiver(CobraDecoder(config))
        decoded = self._decoded_images(receiver, monkeypatch)
        for image in (blurry, sharp, milder):
            receiver.offer(image)
        assert receiver.dropped_captures == 0
        (result,) = receiver.results()
        assert result.ok and result.payload == payload
        assert len(decoded) == 1
        assert np.array_equal(decoded[0], normalize_frame(sharp))

    def test_frames_ranked_independently(self, config, encoder, payload, monkeypatch):
        sharp0, blurry0 = self._captures(config, encoder, payload, sequence=0)
        __, blurry1 = self._captures(config, encoder, payload, sequence=1)
        receiver = CobraReceiver(CobraDecoder(config))
        decoded = self._decoded_images(receiver, monkeypatch)
        for image in (blurry0, blurry1, sharp0):
            receiver.offer(image)
        assert [r.sequence for r in receiver.results()] == [0, 1]
        assert np.array_equal(decoded[0], normalize_frame(sharp0))
        assert np.array_equal(decoded[1], blurry1)  # its only capture

    def test_results_hand_over_each_frame_once(self, config, encoder, payload):
        sharp, __ = self._captures(config, encoder, payload, sequence=0)
        receiver = CobraReceiver(CobraDecoder(config))
        receiver.offer(sharp)
        assert len(receiver.results()) == 1
        assert receiver.results() == []

    def test_unreadable_captures_counted(self, config):
        receiver = CobraReceiver(CobraDecoder(config))
        receiver.offer(np.full((480, 800, 3), 0.5))
        assert receiver.dropped_captures == 1
        assert receiver.results() == []

    def test_stream_roundtrip(self, config, encoder):
        rng = np.random.default_rng(4)
        payload = bytes(rng.integers(0, 256, 2 * config.payload_bytes_per_frame,
                                     dtype=np.uint8))
        frames = encoder.encode_stream(payload)
        sched = FrameSchedule([f.render() for f in frames], display_rate=10)
        link = ScreenCameraLink(LinkConfig(), rng=np.random.default_rng(5))
        receiver = CobraReceiver(CobraDecoder(config))
        for cap in link.capture_stream(sched):
            receiver.offer(cap.image)
        results = receiver.results()
        assert sum(r.ok for r in results) == len(frames)
        joined = b"".join(r.payload for r in sorted(results, key=lambda r: r.sequence))
        assert joined[: len(payload)] == payload
