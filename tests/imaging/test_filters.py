"""Convolution, mean/Gaussian/motion blur.

The filters compute only on the box where their input is not constant.
``_reference_convolve_axis`` and ``_reference_motion_blur`` keep the
full-frame bodies verbatim, as the oracles the box form must match bit
for bit.
"""

import numpy as np
import pytest

from repro.channel.mobility import walking
from repro.imaging import filters
from repro.imaging.filters import (
    convolve_separable,
    gaussian_blur,
    gaussian_kernel,
    mean_filter,
    motion_blur,
)
from repro.imaging.metrics import gradient_energy


class TestKernels:
    def test_gaussian_kernel_normalized(self):
        for sigma in [0.3, 1.0, 2.5]:
            k = gaussian_kernel(sigma)
            assert k.sum() == pytest.approx(1.0)
            assert len(k) % 2 == 1

    def test_gaussian_kernel_symmetric(self):
        k = gaussian_kernel(1.5)
        assert np.allclose(k, k[::-1])

    def test_zero_sigma_is_identity_kernel(self):
        assert np.array_equal(gaussian_kernel(0.0), [1.0])


class TestConvolution:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        img = rng.random((10, 12))
        out = convolve_separable(img, np.array([1.0]), np.array([1.0]))
        assert np.allclose(out, img)

    def test_constant_image_invariant(self):
        img = np.full((8, 8), 0.7)
        out = mean_filter(img, 3)
        assert np.allclose(out, 0.7)

    def test_mean_preservation(self):
        # Reflect padding + normalized kernel preserve the mean of a
        # symmetric image reasonably; exact for constant rows/cols.
        img = np.tile(np.linspace(0, 1, 16), (16, 1))
        out = mean_filter(img, 3)
        assert out.mean() == pytest.approx(img.mean(), abs=1e-3)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            mean_filter(np.zeros((5, 5)), 4)

    def test_color_image_channels_independent(self):
        rng = np.random.default_rng(1)
        img = rng.random((6, 6, 3))
        out = mean_filter(img, 3)
        for c in range(3):
            assert np.allclose(out[..., c], mean_filter(img[..., c], 3))


class TestDenoising:
    def test_mean_filter_reduces_noise_variance(self):
        rng = np.random.default_rng(2)
        clean = np.full((64, 64), 0.5)
        noisy = clean + rng.normal(0, 0.1, clean.shape)
        filtered = mean_filter(noisy, 3)
        assert np.var(filtered - clean) < np.var(noisy - clean) / 4


class TestBlur:
    def test_gaussian_blur_reduces_sharpness(self):
        img = np.zeros((40, 40))
        img[::4, :] = 1.0
        assert gradient_energy(gaussian_blur(img, 2.0)) < gradient_energy(img)

    def test_blur_monotone_in_sigma(self):
        img = np.zeros((40, 40))
        img[::4, :] = 1.0
        e = [gradient_energy(gaussian_blur(img, s)) for s in (0.5, 1.0, 2.0)]
        assert e[0] > e[1] > e[2]

    def test_zero_sigma_copy(self):
        img = np.ones((5, 5))
        out = gaussian_blur(img, 0.0)
        assert np.array_equal(out, img)
        assert out is not img

    def test_motion_blur_directional(self):
        img = np.zeros((31, 31))
        img[:, 15] = 1.0  # vertical line
        horiz = motion_blur(img, 6.0, angle_deg=0.0)
        vert = motion_blur(img, 6.0, angle_deg=90.0)
        # Horizontal blur smears the vertical line; vertical blur does not.
        assert gradient_energy(horiz) < gradient_energy(img)
        assert np.allclose(vert[15], img[15], atol=1e-9)

    def test_motion_blur_zero_length(self):
        img = np.random.default_rng(3).random((8, 8))
        assert np.array_equal(motion_blur(img, 0.0), img)


def _reference_convolve_axis(image: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """1-D convolution along *axis* with reflect padding."""
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 1 or kernel.size % 2 == 0:
        raise ValueError("kernel must be 1-D with odd length")
    pad = kernel.size // 2
    pad_spec = [(0, 0)] * image.ndim
    pad_spec[axis] = (pad, pad)
    padded = np.pad(image, pad_spec, mode="reflect")

    # Accumulate through one reused scratch buffer: `slice * weight`
    # then `out += scratch` is the same arithmetic as
    # `out += weight * slice` without a fresh temporary per tap.
    out = np.zeros_like(image, dtype=np.float64)
    scratch = np.empty_like(out)
    for offset, weight in enumerate(kernel):
        sl = [slice(None)] * image.ndim
        sl[axis] = slice(offset, offset + image.shape[axis])
        np.multiply(padded[tuple(sl)], weight, out=scratch)
        out += scratch
    return out


def _reference_convolve_separable(image, ky, kx):
    image = np.asarray(image, dtype=np.float64)
    out = _reference_convolve_axis(image, np.asarray(ky), axis=0)
    return _reference_convolve_axis(out, np.asarray(kx), axis=1)


def _reference_motion_blur(image, length, angle_deg=0.0):
    image = np.asarray(image, dtype=np.float64)
    if length <= 0:
        return image.copy()
    steps = max(2, int(np.ceil(length)) + 1)
    theta = np.deg2rad(angle_deg)
    offsets = np.linspace(-length / 2.0, length / 2.0, steps)
    acc = np.zeros_like(image)
    for off in offsets:
        dx, dy = off * np.cos(theta), off * np.sin(theta)
        ix, iy = int(np.round(dx)), int(np.round(dy))
        if ix == 0 and iy == 0:
            acc += image
        else:
            acc += np.roll(image, (iy, ix), axis=(0, 1))
    return acc / steps


_SHAPE = (72, 90)


def _box(kind: str, rng: np.random.Generator):
    """``(y0, y1, x0, x1)`` of the varying region for a named placement.

    ``interior`` and ``pixel`` boxes keep 12 samples clear of every
    edge, more than the largest margin tested (10), so they always take
    the crop; ``random`` boxes land on either side of that threshold.
    """
    h, w = _SHAPE
    if kind == "empty":
        return None
    if kind == "full":
        return (0, h, 0, w)
    if kind == "pixel":
        y, x = int(rng.integers(12, h - 12)), int(rng.integers(12, w - 12))
        return (y, y + 1, x, x + 1)
    if kind in ("interior", "nan_corner"):
        y0, x0 = int(rng.integers(12, h // 2)), int(rng.integers(12, w // 2))
        return (y0, int(rng.integers(y0 + 1, h - 11)), x0, int(rng.integers(x0 + 1, w - 11)))
    if kind == "random":
        y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        return (y0, int(rng.integers(y0 + 1, h + 1)), x0, int(rng.integers(x0 + 1, w + 1)))
    y0, y1 = sorted(int(v) for v in rng.choice(np.arange(1, h), 2, replace=False))
    x0, x1 = sorted(int(v) for v in rng.choice(np.arange(1, w), 2, replace=False))
    return {
        "top": (0, y1, x0, x1),
        "bottom": (y0, h, x0, x1),
        "left": (y0, y1, 0, x1),
        "right": (y0, y1, x0, w),
    }[kind]


_KINDS = ["empty", "full", "pixel", "interior", "nan_corner", "random",
          "top", "bottom", "left", "right"]


def _boxed_image(kind: str, channels: int, seed: int) -> np.ndarray:
    """Random samples inside a box of *kind*, one constant color outside."""
    rng = np.random.default_rng(seed)
    shape = _SHAPE + ((channels,) if channels else ())
    image = np.empty(shape)
    image[...] = rng.random(channels or 1) if channels else rng.random()
    box = _box(kind, rng)
    if box is not None:
        y0, y1, x0, x1 = box
        image[y0:y1, x0:x1] = rng.random(image[y0:y1, x0:x1].shape)
    if kind == "nan_corner":
        image[0, 0] = np.nan
    return image


def _assert_bit_identical(out, expected):
    assert out.shape == expected.shape
    assert out.dtype == expected.dtype == np.float64
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


class TestConstantOutsideTheBox:
    """The box-only filters match the full-frame references bit for bit."""

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("channels", [0, 3])
    @pytest.mark.parametrize("sigma", [0.3, 0.7, 1.3, 2.2, 3.0])
    def test_gaussian_blur(self, kind, channels, sigma):
        image = _boxed_image(kind, channels, seed=int(sigma * 10) + channels)
        k = gaussian_kernel(sigma)
        _assert_bit_identical(gaussian_blur(image, sigma),
                              _reference_convolve_separable(image, k, k))

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("channels", [0, 3])
    @pytest.mark.parametrize("size", [1, 3, 5])
    def test_mean_filter_and_unequal_kernels(self, kind, channels, size):
        image = _boxed_image(kind, channels, seed=40 + size + channels)
        k = np.full(size, 1.0 / size)
        _assert_bit_identical(mean_filter(image, size), _reference_convolve_separable(image, k, k))
        ky, kx = gaussian_kernel(0.5 * size), gaussian_kernel(1.7)
        _assert_bit_identical(convolve_separable(image, ky, kx),
                              _reference_convolve_separable(image, ky, kx))

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("channels", [0, 3])
    @pytest.mark.parametrize("length", [0.4, 1.0, 2.5, 6.0, 11.0, 18.0])
    def test_motion_blur(self, kind, channels, length):
        for angle in (0.0, 33.0, 90.0, 135.0, 251.0):
            image = _boxed_image(kind, channels, seed=int(length * 7 + angle) + channels)
            _assert_bit_identical(motion_blur(image, length, angle),
                                  _reference_motion_blur(image, length, angle))

    def test_motion_blur_walking_draws(self):
        """The hand-shake blurs the link draws under ``walking()``."""
        rng = np.random.default_rng(5)
        mobility = walking()
        for seed in range(12):
            length, angle = mobility.sample_blur(rng)
            image = _boxed_image("interior", 3, seed=seed)
            _assert_bit_identical(motion_blur(image, length, angle),
                                  _reference_motion_blur(image, length, angle))

    def test_strided_and_integer_inputs(self):
        image = _boxed_image("interior", 3, seed=9)
        k = gaussian_kernel(1.1)
        view = image[::-1, ::2]
        _assert_bit_identical(convolve_separable(view, k, k),
                              _reference_convolve_separable(view, k, k))
        _assert_bit_identical(motion_blur(view, 4.0, 60.0), _reference_motion_blur(view, 4.0, 60.0))
        levels = np.round(image * 255).astype(np.uint8)
        _assert_bit_identical(gaussian_blur(levels, 1.1),
                              _reference_convolve_separable(levels, k, k))
        _assert_bit_identical(motion_blur(levels, 3.0, 10.0),
                              _reference_motion_blur(levels, 3.0, 10.0))

    def test_even_kernel_still_rejected_on_every_path(self):
        for kind in ("empty", "interior", "full"):
            with pytest.raises(ValueError, match="odd length"):
                convolve_separable(_boxed_image(kind, 0, seed=1), np.ones(2), np.ones(3))

    def test_only_the_grown_box_is_convolved(self, monkeypatch):
        seen = []
        original = filters._convolve_axis

        def spy(image, kernel, axis):
            seen.append(image.shape)
            return original(image, kernel, axis)

        monkeypatch.setattr(filters, "_convolve_axis", spy)
        image = np.full((200, 300, 3), 0.25)
        image[80:100, 120:150] = 0.75
        gaussian_blur(image, 1.0)  # radius 3, so a margin of 4
        assert seen == [(1, 1, 3), (1, 1, 3), (28, 38, 3), (28, 38, 3)]

    def test_only_the_grown_box_is_shifted(self, monkeypatch):
        seen = []
        original = np.roll

        def spy(image, shift, axis=None):
            seen.append(image.shape)
            return original(image, shift, axis=axis)

        monkeypatch.setattr(filters.np, "roll", spy)
        image = np.full((200, 300), 0.25)
        image[80:100, 120:150] = 0.75
        motion_blur(image, 4.0, 0.0)  # shifts -2..2 along x
        assert set(seen) == {(1, 1), (20, 34)}

    def test_noisy_plane_skips_the_box_search(self, monkeypatch):
        tiled = []
        original = np.tile

        def spy(values, reps):
            tiled.append(reps)
            return original(values, reps)

        monkeypatch.setattr(filters.np, "tile", spy)
        plane = np.random.default_rng(2).random((240, 400))
        k = gaussian_kernel(0.35)
        _assert_bit_identical(gaussian_blur(plane, 0.35),
                              _reference_convolve_separable(plane, k, k))
        assert tiled == []
        # One far corner alone does not span the frame: the search runs.
        image = np.full((40, 60, 3), 0.5)
        image[0, -1] = 0.25
        _assert_bit_identical(gaussian_blur(image, 0.35),
                              _reference_convolve_separable(image, k, k))
        assert tiled
