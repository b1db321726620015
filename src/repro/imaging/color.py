"""Color-space conversions used across the RainBar pipeline.

The paper's receiver classifies block colors in HSV space (Section III-F),
because hue is nearly invariant to illuminance changes while value absorbs
them.  OpenCV is not available in this environment, so the conversions are
implemented directly on NumPy arrays.

Conventions
-----------
* Images are ``float`` arrays shaped ``(H, W, 3)`` (or ``(..., 3)`` for
  pixel batches) with channel values in ``[0, 1]``.
* HSV uses hue in **degrees** ``[0, 360)``, saturation and value in
  ``[0, 1]`` — matching the hue sector thresholds quoted in the paper
  (60deg < hue < 180deg -> green, etc.).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rgb_to_hsv",
    "hsv_to_rgb",
    "to_float",
    "to_uint8",
    "normalize_frame",
    "luminance",
    "UINT8_LEVELS",
]

#: Every 8-bit sample as the float it reads as (``v / 255``).
UINT8_LEVELS = np.arange(256) / 255.0


def to_float(image: np.ndarray) -> np.ndarray:
    """Return *image* as a float64 array scaled to ``[0, 1]``.

    Accepts uint8 images (scaled by 255) or float images (passed through
    after clipping).  A copy is always returned so callers may mutate the
    result safely.
    """
    if image.dtype == np.uint8:
        return image.astype(np.float64) / 255.0
    return np.clip(image.astype(np.float64), 0.0, 1.0)


def to_uint8(image: np.ndarray) -> np.ndarray:
    """Return *image* (float in ``[0, 1]``) as a uint8 array in ``[0, 255]``."""
    return (np.clip(image, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def normalize_frame(image: np.ndarray) -> np.ndarray:
    """Map a capture to a float64 image in [0, 1].

    8-bit captures divide by 255; any other input converts to float64
    unchanged, so synthetic float images decode as given.  Non-numeric
    input raises ``TypeError``.  RainBar's decoder calls this for float
    input only: it reads an 8-bit capture where it samples it
    (:mod:`repro.imaging.interpolation`).  COBRA's decoder and receiver
    still decode every capture as this float frame.
    """
    image = np.asarray(image)
    if image.dtype == np.uint8:
        return image / 255.0
    return np.asarray(image, dtype=np.float64)


def rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    """Convert an RGB array shaped ``(..., 3)`` to HSV.

    Hue is returned in degrees ``[0, 360)``; saturation and value in
    ``[0, 1]``.  Grey pixels (max == min) get hue 0 by convention.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = np.maximum(np.maximum(r, g), b)
    minc = np.minimum(np.minimum(r, g), b)
    delta = maxc - minc

    value = maxc
    with np.errstate(divide="ignore", invalid="ignore"):
        saturation = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)

        hue = np.zeros_like(maxc)
        nonzero = delta > 0
        # Sector selection: which channel holds the maximum.
        rmax = nonzero & (maxc == r)
        gmax = nonzero & (maxc == g) & ~rmax
        bmax = nonzero & ~rmax & ~gmax
        safe = np.where(nonzero, delta, 1.0)
        hue = np.where(rmax, (g - b) / safe % 6.0, hue)
        hue = np.where(gmax, (b - r) / safe + 2.0, hue)
        hue = np.where(bmax, (r - g) / safe + 4.0, hue)
    hue = hue * 60.0
    hue = np.where(hue < 0, hue + 360.0, hue)

    return np.stack([hue, saturation, value], axis=-1)


def hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    """Convert an HSV array shaped ``(..., 3)`` back to RGB in ``[0, 1]``.

    Inverse of :func:`rgb_to_hsv` up to floating-point rounding.
    """
    hsv = np.asarray(hsv, dtype=np.float64)
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    h = (h % 360.0) / 60.0
    sector = np.floor(h).astype(np.int64) % 6
    frac = h - np.floor(h)

    p = v * (1.0 - s)
    q = v * (1.0 - s * frac)
    t = v * (1.0 - s * (1.0 - frac))

    # One (r, g, b) triple per sector; vectorized via np.choose.
    r = np.choose(sector, [v, q, p, p, t, v])
    g = np.choose(sector, [t, v, v, q, p, p])
    b = np.choose(sector, [p, p, t, v, v, q])
    return np.stack([r, g, b], axis=-1)


def luminance(rgb: np.ndarray) -> np.ndarray:
    """Rec. 601 luma of an RGB array shaped ``(..., 3)``.

    Used by blur assessment and brightness estimation, which operate on a
    single intensity channel.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    return 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
