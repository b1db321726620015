"""Sub-pixel image sampling.

Perspective warping (camera simulation) and block-center probing (decoder)
both need to read an image at non-integer coordinates.  This module
provides vectorized nearest-neighbour and bilinear samplers.

Coordinate convention: a sample point is ``(x, y)`` where ``x`` indexes
columns and ``y`` indexes rows, matching the paper's notation for block
locations.

A uint8 image (an 8-bit capture) is read as ``v / 255``, the float image
the decoder works in, without converting the whole frame: the samplers
gather the neighbours as uint8 and divide only those by 255.0.  Each
gathered value is then the same float64 the divided frame holds at that
pixel, and the blend that follows is unchanged, so every output equals
the one sampled from ``image / 255.0`` bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sample_nearest", "sample_bilinear", "bilinear_coeffs"]


def _prepare(image: np.ndarray) -> np.ndarray:
    """*image* as ``(H, W, C)``: uint8 as given, anything else as float64."""
    image = np.asarray(image)
    if image.dtype != np.uint8:
        image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        image = image[..., np.newaxis]
    return image


def _gathered(values: np.ndarray) -> np.ndarray:
    """Gathered samples as float64; uint8 samples divide by 255.0."""
    if values.dtype == np.uint8:
        return values / 255.0
    return values


def sample_nearest(
    image: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    fill: float = 0.0,
) -> np.ndarray:
    """Sample *image* at points ``(xs, ys)`` with nearest-neighbour lookup.

    Out-of-bounds points return *fill*.  The output shape is
    ``xs.shape + (channels,)`` (the channel axis is squeezed for 2-D
    inputs).  A uint8 image reads as ``image / 255.0``.
    """
    img = _prepare(image)
    height, width, channels = img.shape
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)

    xi = np.rint(xs).astype(np.int64)
    yi = np.rint(ys).astype(np.int64)
    inside = (xi >= 0) & (xi < width) & (yi >= 0) & (yi < height)

    out = np.full(xs.shape + (channels,), fill, dtype=np.float64)
    out[inside] = _gathered(img[yi[inside], xi[inside]])
    if np.asarray(image).ndim == 2:
        return out[..., 0]
    return out


def bilinear_coeffs(
    xs: np.ndarray, ys: np.ndarray, height: int, width: int
) -> tuple[np.ndarray, ...]:
    """Precompute the interpolation terms of :func:`sample_bilinear`.

    Returns ``(outside, i00, i01, i10, i11, fx, fy, ifx, ify)``: the
    out-of-bounds mask (``None`` when every sample is in bounds), the
    four flat (row-major) neighbour indices, and the fractional blend
    weights with their complements.  The terms depend only on the sample
    coordinates and the source image size, so a caller that repeatedly
    samples images of one shape at fixed coordinates (e.g. a
    tripod-session perspective warp) can compute them once.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)

    finite = np.isfinite(xs) & np.isfinite(ys)
    if not finite.all():
        # Non-finite sample points (degenerate homographies, failed
        # locator walks on corrupted captures) count as out of bounds;
        # substituting -1 keeps the index arithmetic below well-defined
        # (NaN would otherwise turn into an arbitrary int64 index).
        xs = np.where(finite, xs, -1.0)
        ys = np.where(finite, ys, -1.0)

    inside = (xs >= 0.0) & (xs <= width - 1.0) & (ys >= 0.0) & (ys <= height - 1.0)

    x0 = np.clip(np.floor(xs), 0, width - 1).astype(np.int64)
    y0 = np.clip(np.floor(ys), 0, height - 1).astype(np.int64)
    x1 = np.clip(x0 + 1, 0, width - 1)
    y1 = np.clip(y0 + 1, 0, height - 1)

    fx = np.clip(xs - x0, 0.0, 1.0)[..., np.newaxis]
    fy = np.clip(ys - y0, 0.0, 1.0)[..., np.newaxis]

    base0 = y0 * width
    base1 = y1 * width
    outside = None if inside.all() else ~inside
    return (
        outside,
        base0 + x0,
        base0 + x1,
        base1 + x0,
        base1 + x1,
        fx,
        fy,
        1.0 - fx,
        1.0 - fy,
    )


def sample_bilinear(
    image: np.ndarray,
    xs: np.ndarray | None,
    ys: np.ndarray | None,
    fill: float = 0.0,
    coeffs: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """Sample *image* at points ``(xs, ys)`` with bilinear interpolation.

    Points outside the image rectangle return *fill*; points in the
    half-open border band are clamped-blended against the edge pixels so a
    warp that lands exactly on the boundary stays continuous.  *coeffs*
    may carry a matching :func:`bilinear_coeffs` result to skip the
    coordinate arithmetic (the caller guarantees it was computed for the
    same coordinates and source shape).  A uint8 image reads as
    ``image / 255.0``.
    """
    img = _prepare(image)
    height, width, channels = img.shape
    if coeffs is None:
        coeffs = bilinear_coeffs(xs, ys, height, width)
    outside, i00, i01, i10, i11, fx, fy, ifx, ify = coeffs

    # Gather the four neighbours through flat `take` on precomputed row
    # offsets: identical values to ``img[y0, x0]`` etc., but measurably
    # faster than 2-D fancy indexing on large coordinate grids (this is
    # the innermost loop of both the warp and the block sampler).  The
    # blend then runs in place on the gathered copies: the operation
    # order (and thus every IEEE rounding step) matches the textbook
    # ``p00*(1-fx) + p01*fx`` form exactly, but no further full-size
    # temporaries are allocated.
    flat = img.reshape(-1, channels)
    p00 = _gathered(flat.take(i00, axis=0))
    p01 = _gathered(flat.take(i01, axis=0))
    p10 = _gathered(flat.take(i10, axis=0))
    p11 = _gathered(flat.take(i11, axis=0))

    p00 *= ifx
    p01 *= fx
    p00 += p01  # top row blend
    p10 *= ifx
    p11 *= fx
    p10 += p11  # bottom row blend
    p00 *= ify
    p10 *= fy
    p00 += p10  # vertical blend

    if outside is not None:
        p00[outside] = fill
    if np.asarray(image).ndim == 2:
        return p00[..., 0]
    return p00
