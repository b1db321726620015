"""Noise models, vignette, and image-quality metrics."""

import numpy as np
import pytest

from repro.imaging.metrics import gradient_energy, mean_abs_error, psnr
from repro.imaging.noise import (
    add_ambient_light,
    add_gaussian_noise,
    add_shot_noise,
    scale_brightness,
    vignette,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestGaussianNoise:
    def test_zero_sigma_identity(self, rng):
        img = np.full((10, 10), 0.5)
        assert np.array_equal(add_gaussian_noise(img, 0.0, rng), img)

    def test_noise_statistics(self, rng):
        img = np.full((200, 200), 0.5)
        out = add_gaussian_noise(img, 0.05, rng)
        assert np.std(out - img) == pytest.approx(0.05, rel=0.05)
        assert np.mean(out) == pytest.approx(0.5, abs=0.005)

    def test_clipping(self, rng):
        out = add_gaussian_noise(np.ones((50, 50)), 0.3, rng)
        assert out.max() <= 1.0 and out.min() >= 0.0


class TestShotNoise:
    def test_more_photons_less_noise(self, rng):
        img = np.full((100, 100), 0.5)
        noisy_low = add_shot_noise(img, 500, np.random.default_rng(1))
        noisy_high = add_shot_noise(img, 50000, np.random.default_rng(1))
        assert np.std(noisy_low - img) > np.std(noisy_high - img)

    def test_dark_pixels_relatively_noisier(self, rng):
        bright = np.full((200, 200), 0.9)
        dark = np.full((200, 200), 0.1)
        rel = lambda img: np.std(add_shot_noise(img, 2000, rng) - img) / img[0, 0]  # noqa: E731
        assert rel(dark) > rel(bright)

    def test_disabled(self, rng):
        img = np.full((5, 5), 0.3)
        assert np.array_equal(add_shot_noise(img, 0, rng), img)


class TestAmbientAndBrightness:
    def test_ambient_lifts_black(self):
        assert add_ambient_light(np.zeros((2, 2)), 0.3).min() == pytest.approx(0.3)

    def test_ambient_compresses_contrast(self):
        img = np.array([[0.0, 1.0]])
        out = add_ambient_light(img, 0.4)
        assert np.ptp(out) == pytest.approx(0.6)

    def test_brightness_scaling(self):
        img = np.array([[0.5, 1.0]])
        assert np.allclose(scale_brightness(img, 0.4), [[0.2, 0.4]])

    def test_vignette_darkens_corners_not_center(self):
        img = np.ones((41, 41))
        out = vignette(img, strength=0.3)
        assert out[20, 20] == pytest.approx(1.0, abs=1e-6)
        assert out[0, 0] < 0.85

    def test_vignette_color_image(self):
        img = np.ones((21, 21, 3))
        out = vignette(img, strength=0.2)
        assert out.shape == img.shape


class TestMetrics:
    def test_gradient_energy_orders_blur(self):
        img = np.zeros((32, 32))
        img[::2] = 1.0
        from repro.imaging.filters import gaussian_blur

        assert gradient_energy(img) > gradient_energy(gaussian_blur(img, 1.0))

    def test_constant_image_zero_energy(self):
        assert gradient_energy(np.full((10, 10), 0.3)) == 0.0

    def test_psnr_identical_infinite(self):
        img = np.random.default_rng(0).random((8, 8))
        assert psnr(img, img) == float("inf")

    def test_psnr_known_value(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 0.1)
        assert psnr(a, b) == pytest.approx(20.0)

    def test_psnr_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_mean_abs_error(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.25)
        assert mean_abs_error(a, b) == pytest.approx(0.25)
