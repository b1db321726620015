"""Camera color-pipeline effects: the degradations between photons and
the frames a decoder actually reads.

The paper's receiver records the barcode stream as *video* and decodes
the recorded frames (the "buffered decoding mode", Section IV).  Between
the sensor and that video sit a Bayer demosaic and 4:2:0 chroma
subsampling — both smear **color** (not luma) across ~2 pixels, which is
precisely what limits small color blocks in practice.  A white-balance
error adds a global channel-gain tilt.

These operate in YCbCr space (BT.601), reusing the luma weights of
:func:`repro.imaging.color.luminance`.
"""

from __future__ import annotations

import numpy as np

from .filters import gaussian_blur

__all__ = [
    "rgb_to_ycbcr",
    "ycbcr_to_rgb",
    "chroma_subsample",
    "white_balance_shift",
    "quantize_8bit",
    "CameraPipeline",
]

_KR, _KG, _KB = 0.299, 0.587, 0.114


def _ycbcr_planes(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BT.601 Y, Cb and Cr of an ``(..., 3)`` *rgb* array as separate planes."""
    y = _KR * rgb[..., 0] + _KG * rgb[..., 1] + _KB * rgb[..., 2]
    cb = (rgb[..., 2] - y) / (2.0 * (1.0 - _KB))
    cr = (rgb[..., 0] - y) / (2.0 * (1.0 - _KR))
    return y, cb, cr


def _rgb_from_planes(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Interleaved, clipped RGB from Y, Cb and Cr planes."""
    r = y + 2.0 * (1.0 - _KR) * cr
    b = y + 2.0 * (1.0 - _KB) * cb
    out = np.empty(y.shape + (3,), dtype=np.float64)
    out[..., 0] = r
    out[..., 1] = (y - _KR * r - _KB * b) / _KG
    out[..., 2] = b
    return np.clip(out, 0.0, 1.0, out=out)


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """BT.601 full-range RGB -> YCbCr (Y in [0,1], Cb/Cr in [-0.5, 0.5])."""
    return np.stack(_ycbcr_planes(np.asarray(rgb, dtype=np.float64)), axis=-1)


def ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rgb_to_ycbcr` (exact up to rounding)."""
    ycc = np.asarray(ycc, dtype=np.float64)
    return _rgb_from_planes(ycc[..., 0], ycc[..., 1], ycc[..., 2])


def chroma_subsample(image: np.ndarray, factor: int = 2, chroma_blur: float = 0.7) -> np.ndarray:
    """4:2:0-style chroma subsampling: blur + down/upsample Cb and Cr.

    Luma passes through untouched; chroma is low-passed, decimated by
    *factor* and bilinearly restored — the same information loss a
    recorded H.264 stream (or a Bayer demosaic) imposes on block colors.

    Y, Cb and Cr are processed as separate contiguous 2-D planes and RGB
    is written straight from them.  The box-average decimation sums the
    ``factor x factor`` strided views of a plane in row-major order from
    zero and divides by ``factor**2``: the same additions, in the same
    order, as ``reshape(...).mean(axis=(1, 3))``, so the result matches
    that formulation bit for bit.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    image = np.asarray(image, dtype=np.float64)
    if image.shape[0] < factor or image.shape[1] < factor:
        raise ValueError(
            f"image of shape {image.shape} is smaller than the chroma factor {factor}"
        )
    y, cb, cr = _ycbcr_planes(image)
    if factor > 1:
        cb = _subsample_plane(cb, factor, chroma_blur)
        cr = _subsample_plane(cr, factor, chroma_blur)
    elif chroma_blur > 0:
        cb = gaussian_blur(cb, chroma_blur)
        cr = gaussian_blur(cr, chroma_blur)
    return _rgb_from_planes(y, cb, cr)


def _subsample_plane(plane: np.ndarray, factor: int, chroma_blur: float) -> np.ndarray:
    """Box-decimate one chroma plane, blur it small, restore its size.

    Rows and columns past the last whole ``factor`` block are dropped by
    the decimation; the upsample replicates the edge into them.  Any
    extra blur runs on the *small* plane, where it is ``factor**2``
    times cheaper.
    """
    height, width = plane.shape
    h2, w2 = height // factor * factor, width // factor * factor
    sub = np.zeros((h2 // factor, w2 // factor), dtype=np.float64)
    for i in range(factor):
        for j in range(factor):
            sub += plane[i:h2:factor, j:w2:factor]
    sub /= factor * factor
    if chroma_blur > 0:
        sub = gaussian_blur(sub, chroma_blur / factor)
    return _bilinear_upsample(sub, (height, width), factor)


#: 1-D upsample coordinates keyed by (full shape, small shape, factor).
#: The mapping is fixed for a given geometry, so the floor/clip/fraction
#: work runs once per image size instead of once per capture.
_UPSAMPLE_COORD_CACHE: dict[tuple[int, int, int, int, int], tuple] = {}


def _upsample_axis_coords(full: int, small: int, factor: int) -> tuple:
    """Lower/upper source indices and blend fraction along one axis."""
    offset = (factor - 1) / 2.0
    coords = np.clip((np.arange(full, dtype=np.float64) - offset) / factor, 0.0, small - 1.0)
    i0 = np.clip(np.floor(coords), 0, small - 1).astype(np.int64)
    i1 = np.clip(i0 + 1, 0, small - 1)
    frac = np.clip(coords - i0, 0.0, 1.0)
    return i0, i1, frac


def _bilinear_upsample(small: np.ndarray, shape: tuple[int, int], factor: int) -> np.ndarray:
    """Restore a decimated 2-D plane to *shape* with bilinear interpolation.

    A decimated sample i covers full-resolution pixels
    ``[i*factor, (i+1)*factor)`` and is centered at
    ``i*factor + (factor-1)/2``, so full pixel p maps to small
    coordinate ``(p - (factor-1)/2) / factor``.  Coordinates clamp to
    the small grid so edges replicate instead of reading fill values.

    The map is separable (x depends only on the column, y only on the
    row), so the blend along x runs once on the small plane's ``sh``
    rows, and the blend along y gathers rows of that result.  Each
    output pixel gets the same operands and operations, in the same
    order, as ``(a*(1-fx) + b*fx)*(1-fy) + (c*(1-fx) + d*fx)*fy`` on
    the four gathered corners.
    """
    height, width = shape
    sh, sw = small.shape
    key = (height, width, sh, sw, factor)
    cached = _UPSAMPLE_COORD_CACHE.get(key)
    if cached is None:
        cached = _upsample_axis_coords(height, sh, factor) + _upsample_axis_coords(
            width, sw, factor
        )
        if len(_UPSAMPLE_COORD_CACHE) > 16:
            _UPSAMPLE_COORD_CACHE.clear()
        _UPSAMPLE_COORD_CACHE[key] = cached
    y0, y1, fy, x0, x1, fx = cached

    # In-place blends on the gathered copies: the same rounding as
    # ``a*(1-f) + b*f`` without further temporaries.
    rows = small.take(x0, axis=1)
    rows *= 1.0 - fx
    tmp = small.take(x1, axis=1)
    tmp *= fx
    rows += tmp
    out = rows.take(y0, axis=0)
    out *= (1.0 - fy)[:, np.newaxis]
    tmp = rows.take(y1, axis=0)
    tmp *= fy[:, np.newaxis]
    out += tmp
    return out


def white_balance_shift(image: np.ndarray, gains: tuple[float, float, float]) -> np.ndarray:
    """Per-channel gain error (auto-white-balance mis-estimation)."""
    image = np.asarray(image, dtype=np.float64)
    out = image * np.asarray(gains, dtype=np.float64)
    return np.clip(out, 0.0, 1.0, out=out)


def quantize_8bit(image: np.ndarray) -> np.ndarray:
    """Round to 8-bit samples — the recorded video's sample depth.

    Rounds half to even (``np.round``), so ``quantize_8bit(x) / 255``
    is the nearest 8-bit level of ``clip(x, 0, 1)``.
    """
    out = np.clip(image, 0.0, 1.0)
    out *= 255.0
    return np.round(out, out=out).astype(np.uint8)


class CameraPipeline:
    """The color-processing chain applied to every capture.

    Parameters mirror a mid-2010s phone camera recording video:
    ``chroma_factor=2`` (4:2:0), ``chroma_blur`` around 0.7 px, and a
    white-balance gain error of a few percent re-sampled per session.
    The output is still float; the link quantizes it with
    :func:`quantize_8bit` after any sensor-stage fault, as an ISP
    applies exposure before it writes 8-bit samples.
    """

    def __init__(
        self,
        chroma_factor: int = 2,
        chroma_blur: float = 0.7,
        wb_error: float = 0.04,
    ):
        self.chroma_factor = chroma_factor
        self.chroma_blur = chroma_blur
        self.wb_error = wb_error

    def sample_gains(self, rng: np.random.Generator) -> tuple[float, float, float]:
        """Draw this session's white-balance gain error."""
        if self.wb_error <= 0:
            return (1.0, 1.0, 1.0)
        gains = 1.0 + rng.uniform(-self.wb_error, self.wb_error, size=3)
        return (float(gains[0]), float(gains[1]), float(gains[2]))

    def apply(self, image: np.ndarray, gains: tuple[float, float, float]) -> np.ndarray:
        """Run the pipeline on one capture."""
        out = white_balance_shift(image, gains)
        return chroma_subsample(out, self.chroma_factor, self.chroma_blur)
