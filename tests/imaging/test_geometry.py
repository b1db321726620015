"""Homography estimation, warping, pinhole projection, lens distortion."""

import numpy as np
import pytest

from repro.imaging import geometry
from repro.imaging.geometry import (
    PinholeSetup,
    apply_homography,
    estimate_homography,
    radial_distort_points,
    radial_undistort_points,
    warp_perspective,
)
from repro.imaging.interpolation import bilinear_coeffs, sample_bilinear


def _square(width=100.0, height=60.0):
    return np.array([[0, 0], [width, 0], [width, height], [0, height]], dtype=float)


class TestHomographyEstimation:
    def test_identity(self):
        pts = _square()
        h = estimate_homography(pts, pts)
        assert np.allclose(h, np.eye(3), atol=1e-9)

    def test_translation(self):
        src = _square()
        dst = src + [10.0, -5.0]
        h = estimate_homography(src, dst)
        assert np.allclose(apply_homography(h, src), dst, atol=1e-9)

    def test_general_projective(self):
        src = _square()
        dst = np.array([[3, 7], [95, 2], [110, 70], [-4, 55]], dtype=float)
        h = estimate_homography(src, dst)
        assert np.allclose(apply_homography(h, src), dst, atol=1e-6)

    def test_overdetermined_least_squares(self):
        rng = np.random.default_rng(1)
        true_h = np.array([[1.1, 0.02, 5.0], [-0.03, 0.95, -2.0], [1e-4, -2e-4, 1.0]])
        src = rng.uniform(0, 100, size=(20, 2))
        dst = apply_homography(true_h, src)
        h = estimate_homography(src, dst)
        assert np.allclose(h, true_h, atol=1e-6)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            estimate_homography(_square()[:3], _square()[:3])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            estimate_homography(_square(), _square()[:3])

    def test_single_point_apply(self):
        h = np.eye(3)
        out = apply_homography(h, np.array([5.0, 7.0]))
        assert out.shape == (2,)
        assert np.allclose(out, [5, 7])


class TestWarp:
    def test_identity_warp_preserves_image(self):
        rng = np.random.default_rng(0)
        img = rng.random((40, 50, 3))
        out = warp_perspective(img, np.eye(3), (40, 50))
        assert np.allclose(out, img, atol=1e-9)

    def test_translation_moves_content(self):
        img = np.zeros((40, 50))
        img[10:20, 10:20] = 1.0
        h = np.array([[1, 0, 5], [0, 1, 3], [0, 0, 1]], dtype=float)
        out = warp_perspective(img, h, (40, 50))
        assert out[18, 18] == pytest.approx(1.0)
        assert out[12, 12] == pytest.approx(0.0)

    def test_fill_value_outside(self):
        img = np.ones((10, 10))
        h = np.array([[1, 0, 100], [0, 1, 100], [0, 0, 1]], dtype=float)
        out = warp_perspective(img, h, (10, 10), fill=0.5)
        assert np.allclose(out, 0.5)


def _warp_oracle(image, h, output_shape, fill):
    """Whole-grid warp: bilinear terms and gather on every output pixel."""
    height, width = output_shape
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    pts = np.stack([xs.ravel(), ys.ravel(), np.ones(xs.size)])
    with np.errstate(divide="ignore", invalid="ignore"):
        mapped = np.linalg.inv(np.asarray(h, dtype=np.float64)) @ pts
        mapped_x = (mapped[0] / mapped[2]).reshape(height, width)
        mapped_y = (mapped[1] / mapped[2]).reshape(height, width)
    coeffs = bilinear_coeffs(mapped_x, mapped_y, image.shape[0], image.shape[1])
    return sample_bilinear(image, None, None, fill=fill, coeffs=coeffs)


#: Homography whose projective ``w = x/16 - 1`` is exactly 0 on output
#: column 16: the inverse map there is infinite or NaN.  The matrix is
#: its own inverse, so ``np.linalg.inv`` reproduces it exactly.
_W_CROSSES_ZERO = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0625, 0.0, -1.0]])


def _warp_cases():
    screen, sensor = (60, 100), (96, 160)
    return {
        "identity": (np.eye(3), screen),
        "translation": (np.array([[1.0, 0, 7.25], [0, 1.0, -3.5], [0, 0, 1.0]]), screen),
        "pinhole_0deg": (PinholeSetup(screen, sensor).homography(), sensor),
        "pinhole_45deg": (PinholeSetup(screen, sensor, view_angle_deg=45.0).homography(), sensor),
        "all_outside": (np.array([[1.0, 0, 500.0], [0, 1.0, 500.0], [0, 0, 1.0]]), screen),
        "w_crosses_zero": (_W_CROSSES_ZERO, (40, 64)),
    }


class TestWarpFootprint:
    """The footprint-box warp is byte-identical to a whole-grid warp."""

    @pytest.mark.parametrize("case", sorted(_warp_cases()))
    @pytest.mark.parametrize("channels", [None, 3])
    @pytest.mark.parametrize("fill", [0.0, 0.1, 0.5])
    def test_matches_whole_grid_oracle(self, case, channels, fill):
        h, output_shape = _warp_cases()[case]
        shape = (60, 100) if channels is None else (60, 100, channels)
        image = np.random.default_rng(5).random(shape)
        expected = _warp_oracle(image, h, output_shape, fill)
        geometry._WARP_COORD_CACHE.clear()
        with np.errstate(divide="ignore", invalid="ignore"):
            first = warp_perspective(image, h, output_shape, fill=fill)
            cached = warp_perspective(image, h, output_shape, fill=fill)
        assert first.shape == expected.shape
        assert np.array_equal(first.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(cached.view(np.uint64), expected.view(np.uint64))

    def test_non_finite_case_really_has_non_finite_points(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = np.arange(64.0)
            w = _W_CROSSES_ZERO[2, 0] * xs + _W_CROSSES_ZERO[2, 2]
            mapped_x = xs / w
        assert not np.isfinite(mapped_x).all()


class TestWarpCache:
    """The warp keeps the terms of the last homography only."""

    @staticmethod
    def _link(mobility):
        from repro.channel.link import LinkConfig, ScreenCameraLink
        from repro.channel.screen import FrameSchedule

        image = np.random.default_rng(6).random((60, 100, 3))
        schedule = FrameSchedule([image, image[::-1]], display_rate=10.0)
        config = LinkConfig(sensor_size=(96, 160), mobility=mobility)
        return ScreenCameraLink(config, rng=np.random.default_rng(7)), schedule

    def test_tripod_stream_computes_terms_once(self, monkeypatch):
        from repro.channel.mobility import tripod

        calls = []

        def spy(*args, **kwargs):
            calls.append(args[2:])
            return bilinear_coeffs(*args, **kwargs)

        monkeypatch.setattr(geometry, "bilinear_coeffs", spy)
        geometry._WARP_COORD_CACHE.clear()
        link, schedule = self._link(tripod())
        captures = link.capture_stream(schedule)
        assert len(captures) > 1
        assert len(calls) == 1

    def test_handheld_stream_holds_one_entry(self, monkeypatch):
        from repro.channel import link as link_module
        from repro.channel.mobility import handheld

        sizes = []

        def recording_warp(*args, **kwargs):
            out = warp_perspective(*args, **kwargs)
            sizes.append(len(geometry._WARP_COORD_CACHE))
            return out

        monkeypatch.setattr(link_module, "warp_perspective", recording_warp)
        link, schedule = self._link(handheld())
        captures = link.capture_stream(schedule)
        assert len(sizes) == len(captures) > 1
        assert max(sizes) == 1


class TestRadialDistortion:
    def test_center_fixed_point(self):
        center = (50.0, 30.0)
        out = radial_distort_points(np.array([50.0, 30.0]), center, k1=0.2)
        assert np.allclose(out, [50, 30])

    def test_barrel_pushes_outward(self):
        center = (0.0, 0.0)
        out = radial_distort_points(np.array([10.0, 0.0]), center, k1=0.1, norm_radius=10.0)
        assert out[0] > 10.0

    def test_undistort_inverts(self):
        rng = np.random.default_rng(2)
        center = (40.0, 25.0)
        pts = rng.uniform(0, 80, size=(30, 2))
        distorted = radial_distort_points(pts, center, k1=0.08, k2=0.01, norm_radius=50.0)
        recovered = radial_undistort_points(
            distorted, center, k1=0.08, k2=0.01, norm_radius=50.0, iterations=20
        )
        assert np.allclose(recovered, pts, atol=1e-6)


class TestPinhole:
    def _setup(self, **kwargs):
        defaults = dict(screen_size_px=(408, 720), sensor_size_px=(480, 800))
        defaults.update(kwargs)
        return PinholeSetup(**defaults)

    def test_frontal_projection_is_centered_and_symmetric(self):
        setup = self._setup(view_angle_deg=0.0)
        corners = setup.project_screen_points(setup.screen_corners_px())
        cx = (800 - 1) / 2
        assert corners[0][0] + corners[1][0] == pytest.approx(2 * cx, abs=1e-6)
        assert corners[0][1] == pytest.approx(corners[1][1], abs=1e-6)

    def test_distance_shrinks_projection(self):
        near = self._setup(distance_cm=10.0)
        far = self._setup(distance_cm=20.0)

        def width(s):
            return np.ptp(s.project_screen_points(s.screen_corners_px())[:, 0])

        assert width(far) < width(near)
        assert width(far) == pytest.approx(width(near) / 2, rel=1e-6)

    def test_view_angle_foreshortens_asymmetrically(self):
        setup = self._setup(view_angle_deg=25.0)
        corners = setup.project_screen_points(setup.screen_corners_px())
        left_height = corners[3][1] - corners[0][1]
        right_height = corners[2][1] - corners[1][1]
        assert abs(right_height - left_height) > 1.0  # perspective trapezoid

    def test_homography_matches_projection(self):
        setup = self._setup(view_angle_deg=18.0, tilt_angle_deg=5.0, distance_cm=15.0)
        h = setup.homography()
        rng = np.random.default_rng(3)
        pts = rng.uniform([0, 0], [719, 407], size=(25, 2))
        assert np.allclose(
            apply_homography(h, pts), setup.project_screen_points(pts), atol=1e-6
        )

    def test_point_behind_camera_raises(self):
        setup = self._setup(distance_cm=1.0, view_angle_deg=80.0)
        with pytest.raises(ValueError):
            setup.project_screen_points(setup.screen_corners_px())

    def test_offset_shifts_projection(self):
        base = self._setup()
        shifted = self._setup(offset_px=(7.0, -3.0))
        a = base.project_screen_points(np.array([100.0, 100.0]))
        b = shifted.project_screen_points(np.array([100.0, 100.0]))
        assert np.allclose(b - a, [7.0, -3.0], atol=1e-9)
