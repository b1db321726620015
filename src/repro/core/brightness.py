"""Brightness assessment and the black/value threshold T_v (Section III-F).

Illuminance shifts move the HSV *value* of every pixel but barely touch
hue and saturation, so the only threshold that must adapt per frame is
T_v, separating black (structure cells) from the four data colors.  The
paper estimates it as a linear blend of the mean value of dark pixels
and the mean value of bright pixels, sampled from the frame's four
quadrants (Eq. 2):

    T_v = mu * V_b + (1 - mu) * V_o,    mu = 0.55

with V_b averaging sampled pixels of value < 0.1 and V_o averaging the
rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BrightnessEstimate", "estimate_black_threshold", "DEFAULT_MU", "DEFAULT_T_SAT"]

DEFAULT_MU = 0.55
DEFAULT_T_SAT = 0.41
#: The paper's fixed dark cutoff (pixels of value < 0.1 form V_b).  The
#: implementation replaces it with an ISODATA split seeded at the value
#: midrange (see estimate_black_threshold), which matches this constant
#: indoors and stays correct under ambient lift; kept for reference and
#: for experiments that want the verbatim rule.
PAPER_DARK_CUTOFF = 0.1


@dataclass(frozen=True)
class BrightnessEstimate:
    """Per-frame brightness statistics and the derived T_v."""

    t_value: float  # T_v: value below this is classified black
    mean_black_value: float  # V_b
    mean_other_value: float  # V_o
    sample_count: int

    @property
    def contrast(self) -> float:
        """Separation between dark and bright populations (V_o - V_b)."""
        return self.mean_other_value - self.mean_black_value


def estimate_black_threshold(
    image: np.ndarray,
    samples_per_region: int = 200,
    mu: float = DEFAULT_MU,
    rng: np.random.Generator | None = None,
) -> BrightnessEstimate:
    """Estimate T_v for *image* by quadrant sampling (paper Eq. 2).

    The frame is split into four equal regions; ``samples_per_region``
    pixels are sampled from each (uniformly, with a fixed-seed generator
    by default so decoding is deterministic).  Pixels with HSV value
    below 0.1 form the black population V_b, the rest V_o.

    When a frame has no dark samples at all (e.g. an all-white capture),
    V_b falls back to 0 so T_v degenerates gracefully toward
    ``(1 - mu) * V_o``.

    A uint8 capture is read as ``image / 255.0`` without dividing the
    frame: only the gathered samples are divided, which gives each the
    float the divided frame holds there, so the estimate is the same bit
    for bit.
    """
    if rng is None:
        rng = np.random.default_rng(0x5EED)
    image = np.asarray(image)
    if image.dtype != np.uint8:
        image = np.asarray(image, dtype=np.float64)
    height, width = image.shape[:2]
    half_h, half_w = height // 2, width // 2
    regions = [
        (slice(0, half_h), slice(0, half_w)),
        (slice(0, half_h), slice(half_w, width)),
        (slice(half_h, height), slice(0, half_w)),
        (slice(half_h, height), slice(half_w, width)),
    ]

    values = []
    for rows, cols in regions:
        region = image[rows, cols]
        r_h, r_w = region.shape[:2]
        if r_h == 0 or r_w == 0:
            continue
        ys = rng.integers(0, r_h, size=samples_per_region)
        xs = rng.integers(0, r_w, size=samples_per_region)
        pixels = region[ys, xs]
        if pixels.dtype == np.uint8:
            pixels = pixels / 255.0
        # HSV value, exactly as rgb_to_hsv computes it.
        values.append(np.maximum(np.maximum(pixels[:, 0], pixels[:, 1]), pixels[:, 2]))
    value = np.concatenate(values) if values else np.zeros(1)

    # Split dark/bright populations.  The paper uses a fixed value < 0.1
    # cutoff (PAPER_DARK_CUTOFF), valid indoors where screen blacks stay
    # near zero; ambient light (outdoors) lifts them, so the cutoff
    # adapts by ISODATA iteration seeded at the sampled value midrange
    # (equivalent indoors, robust outdoors) — see DESIGN.md deviations.
    lo, hi = np.percentile(value, [1.0, 99.0])
    cutoff = 0.5 * (float(lo) + float(hi))
    for __ in range(16):
        dark = value[value < cutoff]
        bright = value[value >= cutoff]
        if dark.size == 0 or bright.size == 0:
            break
        new_cutoff = 0.5 * (float(dark.mean()) + float(bright.mean()))
        if abs(new_cutoff - cutoff) < 1e-4:
            cutoff = new_cutoff
            break
        cutoff = new_cutoff

    dark = value[value < cutoff]
    bright = value[value >= cutoff]
    v_b = float(dark.mean()) if dark.size else 0.0
    v_o = float(bright.mean()) if bright.size else float(value.mean())
    t_v = mu * v_b + (1.0 - mu) * v_o
    return BrightnessEstimate(
        t_value=t_v,
        mean_black_value=v_b,
        mean_other_value=v_o,
        sample_count=int(value.size),
    )
