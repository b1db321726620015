"""HSV-based robust code extraction (Section III-F).

Recognizing a block means recognizing the color of the pixel at its
center.  The classifier:

1. denoises with a 3x3 **mean filter** — here realized by averaging the
   nine bilinear samples around each (sub-pixel) block center, which is
   equivalent to filtering the image and sampling once, but touches only
   the pixels the decoder needs;
2. converts to HSV and classifies into the five-color alphabet:
   value < T_v -> black; else saturation < T_sat -> white; else hue in
   (60, 180] -> green, (180, 300] -> blue, otherwise red.

T_v comes from :mod:`repro.core.brightness`; T_sat is effectively
constant across illuminance (paper: 0.41).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..imaging.color import UINT8_LEVELS, normalize_frame, rgb_to_hsv
from ..imaging.interpolation import sample_bilinear
from ..telemetry.metrics import MARGIN_BUCKETS
from .brightness import DEFAULT_T_SAT
from .palette import Color

__all__ = [
    "ColorClassifier",
    "classify_hsv",
    "classify_rgb_nearest",
    "classification_margins",
    "sample_block_colors",
]

_GREEN_LO, _GREEN_HI = 60.0, 180.0
_BLUE_HI = 300.0


def classify_hsv(
    hsv: np.ndarray,
    t_value: float,
    t_sat: float = DEFAULT_T_SAT,
) -> np.ndarray:
    """Classify HSV pixels ``(..., 3)`` into color indices (vectorized)."""
    hsv = np.asarray(hsv, dtype=np.float64)
    hue, sat, val = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    out = np.full(hue.shape, int(Color.RED), dtype=np.int64)
    out[(hue > _GREEN_LO) & (hue <= _GREEN_HI)] = int(Color.GREEN)
    out[(hue > _GREEN_HI) & (hue <= _BLUE_HI)] = int(Color.BLUE)
    out[sat < t_sat] = int(Color.WHITE)
    out[val < t_value] = int(Color.BLACK)
    return out


def classification_margins(
    hsv: np.ndarray,
    t_value: float,
    t_sat: float = DEFAULT_T_SAT,
) -> np.ndarray:
    """Normalized distance of each HSV pixel to its decision boundary.

    The margin is the smallest normalized distance to any threshold the
    classifier consults: the value threshold T_v (black), the
    saturation threshold T_sat (white), and the nearest hue sector edge
    (60 / 180 / 300 degrees, circular, normalized by the 60-degree
    half-sector).  A margin near 0 means the block sat on a decision
    boundary and was one noise photon away from flipping class —
    exactly the per-block confidence signal the telemetry histograms
    track.
    """
    hsv = np.asarray(hsv, dtype=np.float64)
    hue, sat, val = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    margin_val = np.abs(val - t_value) / max(t_value, 1e-9)
    margin_sat = np.abs(sat - t_sat) / max(t_sat, 1e-9)
    edges = np.array([_GREEN_LO, _GREEN_HI, _BLUE_HI])
    circ = np.abs(hue[..., np.newaxis] - edges)
    margin_hue = np.minimum(circ, 360.0 - circ).min(axis=-1) / 60.0
    return np.clip(np.minimum(np.minimum(margin_val, margin_sat), margin_hue), 0.0, 1.0)


def sample_block_colors(
    image: np.ndarray,
    centers: np.ndarray,
    mean_filter_radius: int = 1,
) -> np.ndarray:
    """Mean-filtered RGB at each ``(x, y)`` center in *centers*.

    Averages the ``(2r+1)^2`` bilinear samples on the unit-spaced grid
    around each center — the paper's 3x3 mean filter for r = 1.  Returns
    an ``(N, 3)`` array.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if mean_filter_radius <= 0:
        return sample_bilinear(image, centers[:, 0], centers[:, 1])
    offsets = np.arange(-mean_filter_radius, mean_filter_radius + 1, dtype=np.float64)
    dx, dy = np.meshgrid(offsets, offsets)
    # One vectorized sampling call over the (N, k^2) offset fan.
    xs = centers[:, 0, np.newaxis] + dx.ravel()
    ys = centers[:, 1, np.newaxis] + dy.ravel()
    samples = sample_bilinear(image, xs, ys)  # (N, k^2, 3)
    return samples.mean(axis=1)


def classify_rgb_nearest(pixels: np.ndarray) -> np.ndarray:
    """Naive alternative: nearest reference color in RGB space.

    Uses the *display* primaries as references, so any illuminance or
    brightness change shifts every pixel away from its reference — the
    fragility the paper's HSV design avoids (ablation A2 quantifies it).
    """
    from .palette import rgb_table

    pixels = np.asarray(pixels, dtype=np.float64)
    refs = rgb_table()  # (5, 3), indexed by Color
    dists = np.linalg.norm(pixels[..., np.newaxis, :] - refs, axis=-1)
    return np.argmin(dists, axis=-1)


@dataclass(frozen=True)
class ColorClassifier:
    """Block-color recognizer binding the thresholds of one capture.

    ``t_value`` must come from the capture's own brightness assessment;
    ``t_sat`` rarely needs changing.  Set ``mean_filter_radius=0`` to
    disable denoising, or ``mode="rgb"`` for the naive RGB
    nearest-neighbour classifier (both are ablation knobs).
    """

    t_value: float
    t_sat: float = DEFAULT_T_SAT
    mean_filter_radius: int = 1
    mode: str = "hsv"

    def classify_centers(self, image: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Color index of the block at each ``(x, y)`` center."""
        rgb = sample_block_colors(image, centers, self.mean_filter_radius)
        registry = telemetry.registry()
        if registry and self.mode == "hsv":
            # Per-block confidence: how far each classified center sat
            # from the nearest HSV decision boundary.  Only computed
            # when a metrics registry is live — the disabled path pays
            # nothing beyond this falsy check.
            hsv = rgb_to_hsv(rgb)
            registry.histogram("classify.margin", MARGIN_BUCKETS).observe_many(
                classification_margins(hsv, self.t_value, self.t_sat)
            )
            return classify_hsv(hsv, self.t_value, self.t_sat)
        return self.classify_pixels_denoised(rgb)

    def black_mask(self, image: np.ndarray) -> np.ndarray:
        """Boolean mask of pixels that classify as black.

        In HSV mode black is decided purely by the value channel
        (``max(R, G, B) < T_v`` — the black override is applied last in
        :func:`classify_hsv`), so the mask skips the hue/saturation math
        entirely; the decoder computes it once per capture for corner
        and locator detection.  A uint8 capture is compared with the
        integer cutoff ``c = #{v in 0..255 : v / 255 < T_v}``: ``v / 255.0``
        is correctly rounded and so monotone in ``v``, which makes
        ``max(R, G, B) < c`` equal the mask of the divided image bit for
        bit.  Other modes fall back to a full classification of the
        divided image.  Classification is per pixel in both modes, so a
        slice of the mask equals the classification of that window.
        """
        image = np.asarray(image)
        if self.mode != "hsv":
            return self.classify_pixels(normalize_frame(image)) == int(Color.BLACK)
        if image.dtype != np.uint8:
            image = np.asarray(image, dtype=np.float64)
            threshold: float | int = self.t_value
        else:
            threshold = int(np.count_nonzero(UINT8_LEVELS < self.t_value))
        value = np.maximum(np.maximum(image[..., 0], image[..., 1]), image[..., 2])
        return value < threshold

    def classify_pixels(self, pixels: np.ndarray) -> np.ndarray:
        """Color index of raw RGB pixels ``(..., 3)`` (no denoising)."""
        return self.classify_pixels_denoised(np.asarray(pixels, dtype=np.float64))

    def classify_pixels_denoised(self, rgb: np.ndarray) -> np.ndarray:
        if self.mode == "rgb":
            return classify_rgb_nearest(rgb)
        return classify_hsv(rgb_to_hsv(rgb), self.t_value, self.t_sat)
