"""Sensor and environment noise models.

The channel simulator degrades rendered frames with the photometric
effects the paper's evaluation sweeps: sensor read noise, photon shot
noise, ambient light (indoor vs outdoor), and illumination/brightness
scaling.  All generators take an explicit :class:`numpy.random.Generator`
so experiments are reproducible.

The helpers also run on a block of rows: each takes ``out=`` (which may
be its input), and :func:`vignette` takes the block's place in its frame.
:meth:`repro.channel.environment.EnvironmentProfile.degrade` runs them
that way, in blocks small enough to stay in cache.  The block rule is
the random stream's: every shot-noise draw of a frame comes before any
of its read-noise draws, and a draw made block by block, in row order,
fills the same values as one full-frame draw and leaves the generator
in the same state.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "add_gaussian_noise",
    "add_shot_noise",
    "add_ambient_light",
    "scale_brightness",
    "vignette",
]


def _copy(image: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return image.copy()
    np.copyto(out, image)
    return out


def add_gaussian_noise(
    image: np.ndarray,
    sigma: float,
    rng: np.random.Generator,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Additive zero-mean Gaussian read noise with std *sigma* (in [0,1] units).

    The noise is ``sigma * rng.standard_normal``: the values and the
    stream of ``rng.normal(0.0, sigma)``.
    """
    image = np.asarray(image, dtype=np.float64)
    if sigma <= 0:
        return _copy(image, out)
    noise = rng.standard_normal(image.shape)
    noise *= sigma
    noise += image
    return np.clip(noise, 0.0, 1.0, out=noise if out is None else out)


def add_shot_noise(
    image: np.ndarray,
    photons_at_white: float,
    rng: np.random.Generator,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Poisson shot noise with *photons_at_white* photons at full scale.

    Lower photon counts (dim screens, short exposures) give relatively
    noisier images — the mechanism behind the brightness sweep in
    Fig. 10(d).  A given *out* must be C-contiguous.
    """
    image = np.asarray(image, dtype=np.float64)
    if photons_at_white <= 0:
        return _copy(image, out)
    rate = np.clip(image, 0.0, 1.0)
    rate *= photons_at_white
    photons = np.empty(image.shape) if out is None else out
    if photons_at_white >= 100:
        # Gaussian approximation of Poisson (lambda > ~10 everywhere that
        # matters): same mean/variance, ~4x faster than rng.poisson.
        rng.standard_normal(out=photons)
        photons *= np.sqrt(rate)
        photons += rate
    else:
        photons[...] = rng.poisson(rate)
    photons /= photons_at_white
    return np.clip(photons, 0.0, 1.0, out=photons)


def add_ambient_light(
    image: np.ndarray, ambient: float, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Mix ambient light into the scene: ``out = image (1 - a) + a``.

    Outdoor captures wash toward white, compressing contrast — the paper
    notes outdoor error rates are much higher than indoor ones.
    """
    image = np.asarray(image, dtype=np.float64)
    ambient = float(np.clip(ambient, 0.0, 1.0))
    out = np.multiply(image, 1.0 - ambient, out=out)
    out += ambient
    return out


def scale_brightness(image: np.ndarray, factor: float) -> np.ndarray:
    """Scale intensities by *factor* (the screen-brightness setting s_b)."""
    return np.clip(np.asarray(image, dtype=np.float64) * factor, 0.0, 1.0)


#: Radial falloff masks keyed by (image shape, strength); the mask
#: depends only on geometry, so each capture shape computes it once.
_FALLOFF_CACHE: dict[tuple[tuple[int, ...], float], np.ndarray] = {}


def _falloff_mask(shape: tuple[int, ...], strength: float) -> np.ndarray:
    """The falloff of an image of *shape*, repeated over its channels.

    A mask of the image's own shape keeps the multiply a flat loop; an
    ``(H, W, 1)`` broadcast runs a 3-element inner loop, ~3x slower.
    """
    key = (shape, float(strength))
    mask = _FALLOFF_CACHE.get(key)
    if mask is None:
        height, width = shape[:2]
        ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
        cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
        r = np.sqrt(((xs - cx) / max(cx, 1)) ** 2 + ((ys - cy) / max(cy, 1)) ** 2)
        plane = 1.0 - strength * np.clip(r / np.sqrt(2.0), 0.0, 1.0) ** 2
        mask = np.empty(shape)
        mask[...] = plane.reshape(plane.shape + (1,) * (len(shape) - 2))
        if len(_FALLOFF_CACHE) > 16:
            _FALLOFF_CACHE.clear()
        _FALLOFF_CACHE[key] = mask
    return mask


def vignette(
    image: np.ndarray,
    strength: float = 0.2,
    *,
    out: np.ndarray | None = None,
    top: int = 0,
    frame_height: int | None = None,
) -> np.ndarray:
    """Radial illumination falloff toward image corners.

    Models the non-uniform brightness across a captured screen, which is
    why the paper estimates T_v from samples spread over four quadrants.
    *image* may be the rows ``top:top + len(image)`` of a frame
    *frame_height* rows tall; the falloff is then that frame's.
    """
    image = np.asarray(image, dtype=np.float64)
    rows = image.shape[0]
    height = rows if frame_height is None else frame_height
    falloff = _falloff_mask((height, *image.shape[1:]), strength)[top : top + rows]
    out = np.multiply(image, falloff, out=out)
    return np.clip(out, 0.0, 1.0, out=out)
