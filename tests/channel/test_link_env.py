"""Environment profiles, mobility, optics and the assembled link."""

import numpy as np
import pytest

from repro.channel.environment import dark_room, indoor, outdoor
from repro.channel.link import LinkConfig, ScreenCameraLink
from repro.channel.mobility import AccelerometerSim, handheld, tripod, walking
from repro.channel.optics import LensModel, apply_radial_distortion
from repro.channel.screen import FrameSchedule
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.imaging.metrics import gradient_energy


@pytest.fixture(scope="module")
def frame_image():
    cfg = FrameCodecConfig()
    return FrameEncoder(cfg).encode_frame(b"channel test", sequence=0).render()


class TestEnvironmentProfiles:
    def test_outdoor_washes_out_contrast(self, frame_image):
        rng = np.random.default_rng(0)
        ind = indoor().degrade(frame_image, rng)
        out = outdoor().degrade(frame_image, np.random.default_rng(0))
        assert out.min() > ind.min()  # ambient lifts blacks
        assert np.ptp(out) < np.ptp(ind)

    def test_dark_room_keeps_blacks(self, frame_image):
        rng = np.random.default_rng(1)
        out = dark_room().degrade(frame_image, rng)
        assert out.min() < 0.05

    def test_with_ambient_override(self):
        env = indoor().with_ambient(0.5)
        assert env.ambient == 0.5
        assert env.name == indoor().name


class TestMobility:
    def test_tripod_is_still(self):
        rng = np.random.default_rng(2)
        m = tripod()
        assert m.sample_offset(rng) == (0.0, 0.0)
        assert m.sample_blur(rng) == (0.0, 0.0)
        assert m.sample_angle_offset(rng) == 0.0

    def test_walking_shakes_more_than_handheld(self):
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        hh = [np.hypot(*handheld().sample_offset(rng_a)) for __ in range(200)]
        wk = [np.hypot(*walking().sample_offset(rng_b)) for __ in range(200)]
        assert np.mean(wk) > np.mean(hh)

    def test_accelerometer_tracks_mobility(self):
        quiet = AccelerometerSim(tripod(), np.random.default_rng(4)).window(64)
        shaky = AccelerometerSim(walking(), np.random.default_rng(4)).window(64)
        assert shaky.mean() > quiet.mean() + 1.0


class TestLens:
    def test_blur_grows_away_from_focus(self):
        lens = LensModel(focus_distance_cm=12.0, base_blur_px=0.5, defocus_per_cm=0.1)
        assert lens.blur_sigma(12.0) == pytest.approx(0.5)
        assert lens.blur_sigma(20.0) > lens.blur_sigma(14.0) > lens.blur_sigma(12.0)

    def test_apply_blurs(self, frame_image):
        lens = LensModel()
        out = lens.apply(frame_image, distance_cm=20.0)
        assert gradient_energy(out) < gradient_energy(frame_image)

    def test_radial_distortion_zero_is_copy(self, frame_image):
        out = apply_radial_distortion(frame_image, 0.0)
        assert np.array_equal(out, frame_image)
        assert out is not frame_image

    def test_default_lens_skips_the_distortion_copy(self, frame_image, monkeypatch):
        # k1 == k2 == 0 warps nothing, so the blurred frame is returned
        # as gaussian_blur allocated it; a barrel lens still distorts.
        import repro.channel.optics as optics

        calls = []

        def spy(image, k1, k2=0.0):
            calls.append((k1, k2))
            return apply_radial_distortion(image, k1, k2)

        monkeypatch.setattr(optics, "apply_radial_distortion", spy)
        out = LensModel().apply(frame_image, distance_cm=12.0)
        assert calls == []
        assert out is not frame_image and out.dtype == np.float64
        zero_sigma = LensModel(base_blur_px=0.0).apply(frame_image, distance_cm=12.0)
        assert calls == [] and zero_sigma is not frame_image
        assert np.array_equal(zero_sigma, frame_image)
        LensModel(k1=0.08, k2=0.01).apply(frame_image, distance_cm=12.0)
        assert calls == [(0.08, 0.01)]

    def test_radial_distortion_bends_lines(self):
        img = np.zeros((81, 121))
        img[40, :] = 1.0  # horizontal line through center stays put
        img[10, :] = 1.0  # off-center line bends
        out = apply_radial_distortion(img, k1=0.15)
        assert out[40].max() > 0.9
        # The off-center line is displaced at the edges vs the middle.
        col_positions = [int(np.argmax(out[:, c])) for c in (0, 60, 120)]
        assert col_positions[0] != col_positions[1]


class TestScreenCameraLink:
    def _schedule(self, frame_image, rate=10):
        return FrameSchedule([frame_image], display_rate=rate)

    def test_capture_shape_and_range(self, frame_image):
        link = ScreenCameraLink(LinkConfig(), rng=np.random.default_rng(0))
        cap = link.capture_at(self._schedule(frame_image), 0.01)
        # Captures are the 8-bit samples of a recorded video.
        assert cap.image.shape == (*link.config.sensor_size, 3)
        assert cap.image.dtype == np.uint8
        assert cap.image.min() < cap.image.max()

    def test_capture_stream_cadence(self, frame_image):
        images = [frame_image] * 5
        sched = FrameSchedule(images, display_rate=10)
        link = ScreenCameraLink(LinkConfig(), rng=np.random.default_rng(1))
        caps = link.capture_stream(sched, start_offset=0.0)
        times = [c.time for c in caps]
        assert len(caps) == 15  # 0.5 s at 30 fps
        assert np.allclose(np.diff(times), 1 / 30)

    def test_distance_shrinks_screen_in_capture(self, frame_image):
        near = ScreenCameraLink(LinkConfig(distance_cm=10), rng=np.random.default_rng(2))
        far = ScreenCameraLink(LinkConfig(distance_cm=20), rng=np.random.default_rng(2))
        sched = self._schedule(frame_image)
        bright = lambda cap: float((cap.image.mean(axis=2) > 0.3 * 255).sum())  # noqa: E731
        assert bright(far.capture_at(sched, 0.0)) < bright(near.capture_at(sched, 0.0))

    def test_deterministic_given_rng(self, frame_image):
        sched = self._schedule(frame_image)
        a = ScreenCameraLink(LinkConfig(), rng=np.random.default_rng(7)).capture_at(sched, 0.0)
        b = ScreenCameraLink(LinkConfig(), rng=np.random.default_rng(7)).capture_at(sched, 0.0)
        assert np.array_equal(a.image, b.image)

    def test_with_helper(self):
        cfg = LinkConfig().with_(distance_cm=17.0)
        assert cfg.distance_cm == 17.0
        assert cfg.view_angle_deg == LinkConfig().view_angle_deg
