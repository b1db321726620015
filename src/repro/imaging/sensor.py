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

Every step runs on contiguous 2-D planes, one per channel, never on the
interleaved ``(H, W, 3)`` array, whose channel reads and writes have a
stride of three samples.  The plane helpers work in place on planes
their caller owns: the four full-size buffers of a capture (R, G, B and
Y) carry it from white balance to the 8-bit samples, so the chain does
not fault in fresh pages for each intermediate.  In-place updates give
every element the same operands and operations, in the same order, as
the expressions written out (``a *= c; a += y`` is ``y + c*a`` because
IEEE addition and multiplication commute), so each plane matches the
interleaved formulation bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .filters import gaussian_blur

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan

__all__ = [
    "rgb_to_ycbcr",
    "ycbcr_to_rgb",
    "chroma_subsample",
    "white_balance_shift",
    "quantize_8bit",
    "CameraPipeline",
]

_KR, _KG, _KB = 0.299, 0.587, 0.114


def _owned_planes(image: np.ndarray) -> np.ndarray:
    """The channel planes of an ``(..., 3)`` array, copied into one ``(3, ...)`` block.

    One transposed copy reads the interleaved array once; three strided
    channel reads would take about twice as long.
    """
    return np.moveaxis(np.asarray(image, dtype=np.float64), -1, 0).copy()


def _ycbcr_planes(
    r: np.ndarray, g: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BT.601 Y, Cb and Cr of the owned R, G and B planes, in place.

    Y is ``(KR*R + KG*G) + KB*B``, Cb ``(B - Y) / (2*(1 - KB))`` and Cr
    ``(R - Y) / (2*(1 - KR))``.  Cb overwrites *b* and Cr overwrites
    *r*; *g* is spent as scratch and free for reuse afterwards.
    """
    y = _KR * r
    g *= _KG
    y += g
    np.multiply(b, _KB, out=g)
    y += g
    b -= y
    b /= 2.0 * (1.0 - _KB)
    r -= y
    r /= 2.0 * (1.0 - _KR)
    return y, b, r


def _rgb_planes(
    y: np.ndarray, cb: np.ndarray, cr: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unclipped R, G and B of the owned Y, Cb and Cr planes, in place.

    R is ``Y + 2*(1 - KR)*Cr``, B ``Y + 2*(1 - KB)*Cb`` and G
    ``((Y - KR*R) - KB*B) / KG``.  R overwrites *cr*, B overwrites
    *cb*, G is written into the free buffer *g*, and *y* is spent.
    """
    cr *= 2.0 * (1.0 - _KR)
    cr += y
    cb *= 2.0 * (1.0 - _KB)
    cb += y
    np.multiply(cr, _KR, out=g)
    np.subtract(y, g, out=g)
    np.multiply(cb, _KB, out=y)
    g -= y
    g /= _KG
    return cr, g, cb


def _interleave_clipped(planes: tuple[np.ndarray, ...]) -> np.ndarray:
    """Interleaved RGB of three planes, clipped to [0, 1]."""
    out = np.stack(planes, axis=-1)
    return np.clip(out, 0.0, 1.0, out=out)


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """BT.601 full-range RGB -> YCbCr (Y in [0,1], Cb/Cr in [-0.5, 0.5])."""
    return np.stack(_ycbcr_planes(*_owned_planes(rgb)), axis=-1)


def ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rgb_to_ycbcr` (exact up to rounding)."""
    y, cb, cr = _owned_planes(ycc)
    return _interleave_clipped(_rgb_planes(y, cb, cr, np.empty_like(y)))


def _check_chroma_factor(shape: tuple[int, ...], factor: int) -> None:
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if shape[0] < factor or shape[1] < factor:
        raise ValueError(f"image of shape {shape} is smaller than the chroma factor {factor}")


def _restore_chroma(
    cb: np.ndarray, cr: np.ndarray, factor: int, chroma_blur: float, scratch: np.ndarray
) -> None:
    """Low-pass, decimate and restore the owned Cb and Cr planes in place.

    *scratch* is a free buffer of their shape.
    """
    for plane in (cb, cr):
        if factor > 1:
            _subsample_plane(plane, factor, chroma_blur, scratch)
        elif chroma_blur > 0:
            plane[...] = gaussian_blur(plane, chroma_blur)


def chroma_subsample(image: np.ndarray, factor: int = 2, chroma_blur: float = 0.7) -> np.ndarray:
    """4:2:0-style chroma subsampling: blur + down/upsample Cb and Cr.

    Luma passes through untouched; chroma is low-passed, decimated by
    *factor* and bilinearly restored — the same information loss a
    recorded H.264 stream (or a Bayer demosaic) imposes on block colors.

    The box-average decimation sums the ``factor x factor`` strided
    views of a plane in row-major order from zero and divides by
    ``factor**2``: the same additions, in the same order, as
    ``reshape(...).mean(axis=(1, 3))``, so the result matches that
    formulation bit for bit.
    """
    image = np.asarray(image, dtype=np.float64)
    _check_chroma_factor(image.shape, factor)
    r, g, b = _owned_planes(image)
    y, cb, cr = _ycbcr_planes(r, g, b)
    _restore_chroma(cb, cr, factor, chroma_blur, scratch=g)
    return _interleave_clipped(_rgb_planes(y, cb, cr, g))


def _subsample_plane(
    plane: np.ndarray, factor: int, chroma_blur: float, scratch: np.ndarray
) -> np.ndarray:
    """Box-decimate one owned chroma plane, blur it small, restore it in place.

    Rows and columns past the last whole ``factor`` block are dropped by
    the decimation; the upsample replicates the edge into them.  Any
    extra blur runs on the *small* plane, where it is ``factor**2``
    times cheaper.  The restored plane overwrites *plane*; *scratch* is
    a free buffer of the same shape.
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
    return _bilinear_upsample(sub, (height, width), factor, out=plane, scratch=scratch)


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


def _bilinear_upsample(
    small: np.ndarray,
    shape: tuple[int, int],
    factor: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
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
    the four gathered corners.  The result is written into *out* and
    *scratch* holds the second row gather, when these float64 buffers
    of *shape* are given.
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
    # The indices are in range, so mode="clip" changes nothing; under
    # the default "raise" NumPy would take into a temporary and copy.
    out = rows.take(y0, axis=0, out=out, mode="clip")
    out *= (1.0 - fy)[:, np.newaxis]
    tmp = rows.take(y1, axis=0, out=scratch, mode="clip")
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
    :meth:`apply` returns the recorded frame's 8-bit samples; a
    sensor-stage fault runs on the float RGB before they are written,
    as an ISP applies exposure before it writes 8-bit samples.
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

    def apply(
        self,
        image: np.ndarray,
        gains: tuple[float, float, float],
        faults: "FaultPlan | None" = None,
        capture_index: int = 0,
    ) -> np.ndarray:
        """Run the pipeline on one float ``(H, W, 3)`` capture; uint8 out.

        White balance, chroma subsampling and 8-bit quantization, with
        *faults*' ``sensor``-stage impairments run between the float RGB
        and the samples.  The gain-scaled R, G and B are read once into
        contiguous 2-D planes and every later step runs on planes; each
        plane is quantized straight into the interleaved uint8 output.
        Every sample gets the same operands and operations, in the same
        order, as :func:`white_balance_shift`, :func:`chroma_subsample`
        and :func:`quantize_8bit` in turn: the only difference is one
        clip fewer, and clip is idempotent.  Only when a sensor-stage
        fault is planned is the float RGB interleaved for it.
        """
        image = np.asarray(image, dtype=np.float64)
        _check_chroma_factor(image.shape, self.chroma_factor)
        planes = np.empty((3,) + image.shape[:2], dtype=np.float64)
        per_plane = np.asarray(gains, dtype=np.float64)[:, np.newaxis, np.newaxis]
        np.multiply(np.moveaxis(image, -1, 0), per_plane, out=planes)
        np.clip(planes, 0.0, 1.0, out=planes)
        r, g, b = planes
        y, cb, cr = _ycbcr_planes(r, g, b)
        _restore_chroma(cb, cr, self.chroma_factor, self.chroma_blur, scratch=g)
        rgb = _rgb_planes(y, cb, cr, g)
        if faults is not None and faults.hooks("sensor"):
            out = faults.apply_image("sensor", _interleave_clipped(rgb), capture_index)
            return quantize_8bit(out)
        # R, G and B are back in planes[0], [1] and [2].
        np.clip(planes, 0.0, 1.0, out=planes)
        planes *= 255.0
        np.round(planes, out=planes)
        samples = np.empty(image.shape, dtype=np.uint8)
        for channel, plane in enumerate(planes):
            samples[..., channel] = plane
        return samples
