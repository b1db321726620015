"""Image quality metrics.

Blur assessment (Section III-D, adopted from COBRA) needs a scalar
sharpness score to pick the best capture when a frame is photographed
more than once; tests and benchmarks additionally use PSNR and mean
absolute error to validate the channel simulator.
"""

from __future__ import annotations

import numpy as np

from .color import UINT8_LEVELS, luminance

__all__ = ["gradient_energy", "psnr", "mean_abs_error"]

#: ``luminance``'s three weighted terms of every 8-bit sample.
_LUMA_R = 0.299 * UINT8_LEVELS
_LUMA_G = 0.587 * UINT8_LEVELS
_LUMA_B = 0.114 * UINT8_LEVELS


def _intensity(image: np.ndarray) -> np.ndarray:
    """The float64 intensity plane the sharpness score reduces.

    A colour image reduces to its ``luminance``.  A uint8 image reads as
    ``image / 255.0``, but is never divided as a whole: each channel
    looks its weighted term up in a 256-entry table and the terms are
    summed in ``luminance``'s order, so the plane equals the luma of the
    divided image bit for bit without a float RGB frame.
    """
    image = np.asarray(image)
    if image.dtype == np.uint8:
        if image.ndim == 3:
            gray = _LUMA_R.take(image[..., 0])
            gray += _LUMA_G.take(image[..., 1])
            gray += _LUMA_B.take(image[..., 2])
            return gray
        return UINT8_LEVELS.take(image)
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 3:
        return luminance(image)
    return image


def gradient_energy(image: np.ndarray) -> float:
    """Mean squared first-difference gradient magnitude.

    Sharp barcode images have strong block-edge gradients; blur attenuates
    them, so higher is sharper.  This is the blur-assessment score used to
    rank repeated captures of the same frame.
    """
    gray = _intensity(image)
    gx = np.diff(gray, axis=1)
    gy = np.diff(gray, axis=0)
    # Squared in place: the same bits as ``gx**2`` without another frame.
    return float(np.mean(np.square(gx, out=gx)) + np.mean(np.square(gy, out=gy)))


def psnr(reference: np.ndarray, test: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB for images in ``[0, 1]``."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError("psnr requires equal shapes")
    mse = float(np.mean((reference - test) ** 2))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)


def mean_abs_error(reference: np.ndarray, test: np.ndarray) -> float:
    """Mean absolute pixel error for images in ``[0, 1]``."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError("mean_abs_error requires equal shapes")
    return float(np.mean(np.abs(reference - test)))
