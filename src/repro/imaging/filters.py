"""Spatial filters.

The decoder uses a 3x3 mean filter for block denoising (Section III-F);
the channel simulator uses Gaussian and motion blur to model defocus and
hand shake.  All filters are separable convolutions implemented with
NumPy; edges use reflect padding, matching the behaviour a phone ISP
would approximate.

Constant outside the box.  A simulated capture is the constant
background the projection left everywhere except around the screen, and
a pixel whose whole stencil is that constant gets the same products,
summed in the same order, as every other such pixel.  So
:func:`convolve_separable` (hence :func:`gaussian_blur` and
:func:`mean_filter`) and :func:`motion_blur` find the bounding box of
the pixels that differ from ``image[0, 0]``, grow it by a margin, run
their per-tap loop on that crop only and fill the rest with what the
same loop gives on a constant 1x1 patch.  The margin is the kernel
radius r for the ``np.roll`` wrap of motion blur, and r + 1 for reflect
padding, which mirrors rows 1..r of the crop into the pad.  Either way
the samples the crop's own edge padding reads are constant, as the
ones the full frame reads there are, so every output sample equals the
full-frame one bit for bit.  A grown box that does not fit inside the
frame runs the same loop on the whole frame.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "convolve_separable",
    "mean_filter",
    "gaussian_kernel",
    "gaussian_blur",
    "motion_blur",
    "box_blur",
]


def _convolve_axis(image: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
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


def _filter_varying_box(
    image: np.ndarray,
    margin_y: int,
    margin_x: int,
    run: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """``run(image)``, computed only on the box where *image* varies.

    The box of pixels that differ from ``image[0, 0]`` (in any channel)
    is grown by *margin_y* rows and *margin_x* columns and filtered
    alone; every other output pixel is ``run`` of a constant 1x1 patch.
    The comparison and the fill run on the ``(H, W*C)`` view against one
    tiled row, not through a per-pixel broadcast or an ``any(axis=2)``,
    which would cost more than the crop saves.  When the top-right and
    bottom-left pixels both differ from ``image[0, 0]`` the box spans
    every row and column, so the search is skipped (a noisy frame).
    """
    height, width = image.shape[:2]
    if image.size == 0:
        return run(image)
    corner = image[0, 0]
    if np.any(image[0, -1] != corner) and np.any(image[-1, 0] != corner):
        return run(image)
    flat = image.reshape(height, -1)
    differs = flat != np.tile(np.ravel(corner), width)
    rows = np.flatnonzero(differs.any(axis=1))
    if rows.size:
        cols = np.flatnonzero(differs.any(axis=0)) // (flat.shape[1] // width)
        y0, y1 = rows[0] - margin_y, rows[-1] + 1 + margin_y
        x0, x1 = cols[0] - margin_x, cols[-1] + 1 + margin_x
        if y0 < 0 or x0 < 0 or y1 > height or x1 > width:
            return run(image)
    out = np.empty(image.shape, dtype=np.float64)
    out.reshape(height, -1)[...] = np.tile(np.ravel(run(image[:1, :1])), width)
    if rows.size:
        out[y0:y1, x0:x1] = run(image[y0:y1, x0:x1])
    return out


def convolve_separable(image: np.ndarray, ky: np.ndarray, kx: np.ndarray) -> np.ndarray:
    """Convolve *image* with the separable kernel ``outer(ky, kx)``.

    Works on 2-D intensity images and ``(H, W, C)`` color images (each
    channel filtered independently).  Only the box where *image* is not
    constant is convolved (see the module docstring).
    """
    image = np.asarray(image, dtype=np.float64)
    ky, kx = np.asarray(ky), np.asarray(kx)

    def run(part: np.ndarray) -> np.ndarray:
        return _convolve_axis(_convolve_axis(part, ky, axis=0), kx, axis=1)

    return _filter_varying_box(image, ky.size // 2 + 1, kx.size // 2 + 1, run)


def mean_filter(image: np.ndarray, size: int = 3) -> np.ndarray:
    """The paper's block-denoising filter: an NxN mean (default 3x3).

    Replaces each pixel by the average of its neighbourhood, which cancels
    zero-mean sensor noise at block centers where neighbours share the
    true color.
    """
    if size < 1 or size % 2 == 0:
        raise ValueError("mean filter size must be odd and positive")
    k = np.full(size, 1.0 / size)
    return convolve_separable(image, k, k)


def box_blur(image: np.ndarray, size: int) -> np.ndarray:
    """Alias of :func:`mean_filter` with explicit naming for channel code."""
    return mean_filter(image, size)


def gaussian_kernel(sigma: float, radius: int | None = None) -> np.ndarray:
    """Normalized 1-D Gaussian kernel; radius defaults to ``ceil(3 sigma)``."""
    if sigma <= 0:
        return np.array([1.0])
    if radius is None:
        radius = max(1, int(np.ceil(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    return k / k.sum()


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Isotropic Gaussian blur; models defocus growing with distance."""
    if sigma <= 0:
        return np.asarray(image, dtype=np.float64).copy()
    k = gaussian_kernel(sigma)
    return convolve_separable(image, k, k)


def motion_blur(image: np.ndarray, length: float, angle_deg: float = 0.0) -> np.ndarray:
    """Linear motion blur of *length* pixels along *angle_deg*.

    Models hand shake during exposure.  Implemented as an average of
    sub-pixel shifted copies (via channel-wise ``np.roll`` on the two
    nearest integer shifts), which is accurate enough for blur lengths of
    a few pixels, the regime the paper operates in.  Only the box where
    *image* is not constant is blurred (see the module docstring).
    """
    image = np.asarray(image, dtype=np.float64)
    if length <= 0:
        return image.copy()
    steps = max(2, int(np.ceil(length)) + 1)
    theta = np.deg2rad(angle_deg)
    offsets = np.linspace(-length / 2.0, length / 2.0, steps)
    shifts = [
        (int(np.round(off * np.sin(theta))), int(np.round(off * np.cos(theta))))
        for off in offsets
    ]

    def run(part: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(part)
        for iy, ix in shifts:
            if ix == 0 and iy == 0:
                acc += part
            else:
                acc += np.roll(part, (iy, ix), axis=(0, 1))
        return acc / steps

    margin_y = max(abs(iy) for iy, _ in shifts)
    margin_x = max(abs(ix) for _, ix in shifts)
    return _filter_varying_box(image, margin_y, margin_x, run)
