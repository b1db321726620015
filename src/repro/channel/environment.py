"""Environment profiles: illumination, ambient light and sensor noise.

The paper evaluates indoors and outdoors at several screen-brightness
settings.  An :class:`EnvironmentProfile` bundles the photometric
degradations a capture suffers beyond geometry:

* **ambient** — stray light mixed into the scene, washing out contrast
  (dominant outdoors);
* **read_noise_sigma** — additive Gaussian sensor noise;
* **photons_at_white** — Poisson shot-noise scale (lower = noisier, the
  dim-screen mechanism of Fig. 10(d));
* **vignette_strength** — radial falloff, the reason T_v sampling spans
  all four quadrants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..imaging.noise import (
    add_ambient_light,
    add_gaussian_noise,
    add_shot_noise,
    vignette,
)

__all__ = ["EnvironmentProfile", "indoor", "outdoor", "dark_room"]

#: Rows per block of :meth:`EnvironmentProfile.degrade`: 8 rows of an
#: 800-pixel RGB frame are ~150 KB of float64, which fits in L2.
BLOCK_ROWS = 8


@dataclass(frozen=True)
class EnvironmentProfile:
    """Photometric conditions of one capture session."""

    name: str = "indoor"
    ambient: float = 0.06
    read_noise_sigma: float = 0.015
    photons_at_white: float = 4000.0
    vignette_strength: float = 0.10

    def degrade(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Apply the profile's photometric chain to a sensor image.

        Ambient light, vignette, shot noise, then read noise, run in
        blocks of :data:`BLOCK_ROWS` rows whose buffers stay in cache.
        Every shot-noise draw comes before any read-noise draw in the
        random stream, so the blocks run in two passes: ambient,
        vignette and shot noise (the photons land in the output), then
        read noise.  Drawn block by block in row order, each pass fills
        the same values as one full-frame draw and leaves *rng* in the
        same state, so the result is bit-identical to the chain run on
        whole frames.
        """
        image = np.asarray(image, dtype=np.float64)
        height = image.shape[0]
        out = np.empty(image.shape)
        lit = np.empty((min(height, BLOCK_ROWS), *image.shape[1:]))
        for top in range(0, height, BLOCK_ROWS):
            rows = slice(top, top + BLOCK_ROWS)
            block = lit[: height - top]
            add_ambient_light(image[rows], self.ambient, out=block)
            vignette(block, self.vignette_strength, out=block, top=top, frame_height=height)
            add_shot_noise(block, self.photons_at_white, rng, out=out[rows])
        for top in range(0, height, BLOCK_ROWS):
            photons = out[top : top + BLOCK_ROWS]
            add_gaussian_noise(photons, self.read_noise_sigma, rng, out=photons)
        return out

    def with_ambient(self, ambient: float) -> "EnvironmentProfile":
        """Copy with a different ambient level (brightness sweeps)."""
        return replace(self, ambient=ambient)


def indoor() -> EnvironmentProfile:
    """Office lighting — the paper's default working condition."""
    return EnvironmentProfile(name="indoor")


def outdoor() -> EnvironmentProfile:
    """Daylight: strong ambient wash and more shot noise on the screen.

    The paper observes "the error rate is much higher when the images
    are taken at outdoor environments".
    """
    return EnvironmentProfile(
        name="outdoor",
        ambient=0.35,
        read_noise_sigma=0.02,
        photons_at_white=2500.0,
        vignette_strength=0.12,
    )


def dark_room() -> EnvironmentProfile:
    """No ambient light; only sensor noise remains."""
    return EnvironmentProfile(
        name="dark_room",
        ambient=0.0,
        read_noise_sigma=0.012,
        photons_at_white=5000.0,
        vignette_strength=0.08,
    )
