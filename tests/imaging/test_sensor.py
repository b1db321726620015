"""Camera color pipeline: YCbCr, chroma subsampling, white balance.

``_reference_bilinear_upsample`` keeps the four-gather upsample (both
rows of every output pixel gathered at full height, then each blended
along x) verbatim, as the oracle the blend-x-on-the-small-plane form
must match bit for bit.  ``_reference_camera_chain`` keeps the chain
the link ran while the pipeline returned float RGB (white balance,
chroma subsampling, the sensor-stage fault hook, then 8-bit
quantization, each on the interleaved array) as the oracle the
plane-wise :meth:`CameraPipeline.apply` must match byte for byte.
"""

import re
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.faults.impairments import Impairment
from repro.imaging.filters import gaussian_blur
from repro.imaging.sensor import (
    CameraPipeline,
    _bilinear_upsample,
    _upsample_axis_coords,
    chroma_subsample,
    quantize_8bit,
    rgb_to_ycbcr,
    white_balance_shift,
    ycbcr_to_rgb,
)


class TestYCbCr:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        rgb = rng.random((16, 16, 3))
        assert np.allclose(ycbcr_to_rgb(rgb_to_ycbcr(rgb)), rgb, atol=1e-9)

    def test_grey_has_zero_chroma(self):
        grey = np.full((4, 4, 3), 0.6)
        ycc = rgb_to_ycbcr(grey)
        assert np.allclose(ycc[..., 0], 0.6)
        assert np.allclose(ycc[..., 1:], 0.0)

    def test_luma_matches_rec601(self):
        red = np.zeros((1, 1, 3))
        red[0, 0, 0] = 1.0
        assert rgb_to_ycbcr(red)[0, 0, 0] == pytest.approx(0.299)


class TestChromaSubsample:
    def test_luma_nearly_untouched(self):
        # Exact up to gamut clipping: blurred chroma + original luma can
        # land slightly outside [0,1] RGB and get clipped back.
        rng = np.random.default_rng(1)
        img = rng.random((32, 32, 3))
        out = chroma_subsample(img, factor=2, chroma_blur=0.7)
        diff = np.abs(rgb_to_ycbcr(out)[..., 0] - rgb_to_ycbcr(img)[..., 0])
        assert np.median(diff) < 1e-6
        assert diff.max() < 0.05

    def test_uniform_color_unchanged(self):
        img = np.tile(np.array([0.9, 0.2, 0.1]), (16, 16, 1))
        out = chroma_subsample(img, factor=2)
        assert np.allclose(out, img, atol=1e-6)

    def test_color_edges_bleed(self):
        # Red | green boundary: after subsampling, colors mix at the edge.
        img = np.zeros((16, 16, 3))
        img[:, :8, 0] = 1.0
        img[:, 8:, 1] = 1.0
        out = chroma_subsample(img, factor=2, chroma_blur=0.7)
        edge = out[8, 7:9]
        assert edge[:, 0].min() < 0.95  # red weakened at the boundary
        # Centers of each half stay pure-ish.
        assert out[8, 2, 0] > 0.9 and out[8, 13, 1] > 0.9

    def test_factor_one_no_blur_is_identity(self):
        rng = np.random.default_rng(2)
        img = rng.random((8, 8, 3))
        assert np.allclose(chroma_subsample(img, factor=1, chroma_blur=0.0), img, atol=1e-9)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            chroma_subsample(np.zeros((4, 4, 3)), factor=0)

    @pytest.mark.parametrize("shape", [(1, 5, 3), (5, 1, 3), (0, 4, 3)])
    def test_image_smaller_than_factor(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"{shape}") + ".*factor 2"):
            chroma_subsample(np.zeros(shape), factor=2)


_KR, _KG, _KB = 0.299, 0.587, 0.114


def _ycc_oracle(rgb):
    """Interleaved BT.601 RGB -> YCbCr."""
    y = _KR * rgb[..., 0] + _KG * rgb[..., 1] + _KB * rgb[..., 2]
    out = np.empty(rgb.shape[:-1] + (3,))
    out[..., 0] = y
    out[..., 1] = (rgb[..., 2] - y) / (2.0 * (1.0 - _KB))
    out[..., 2] = (rgb[..., 0] - y) / (2.0 * (1.0 - _KR))
    return out


def _rgb_oracle(ycc):
    """Interleaved BT.601 YCbCr -> clipped RGB."""
    y, cb, cr = ycc[..., 0], ycc[..., 1], ycc[..., 2]
    r = y + 2.0 * (1.0 - _KR) * cr
    b = y + 2.0 * (1.0 - _KB) * cb
    out = np.empty(ycc.shape[:-1] + (3,))
    out[..., 0] = r
    out[..., 1] = (y - _KR * r - _KB * b) / _KG
    out[..., 2] = b
    return np.clip(out, 0.0, 1.0, out=out)


def _upsample_oracle(small, shape, factor):
    """Bilinear restore of an interleaved ``(h, w, 2)`` chroma array."""

    def axis(full, n):
        coords = np.clip((np.arange(full, dtype=np.float64) - (factor - 1) / 2.0) / factor,
                         0.0, n - 1.0)
        i0 = np.clip(np.floor(coords), 0, n - 1).astype(np.int64)
        return i0, np.clip(i0 + 1, 0, n - 1), np.clip(coords - i0, 0.0, 1.0)

    y0, y1, fy = axis(shape[0], small.shape[0])
    x0, x1, fx = axis(shape[1], small.shape[1])
    fx = fx[np.newaxis, :, np.newaxis]
    fy = fy[:, np.newaxis, np.newaxis]
    rows0, rows1 = small[y0], small[y1]
    top = rows0[:, x0] * (1.0 - fx) + rows0[:, x1] * fx
    bottom = rows1[:, x0] * (1.0 - fx) + rows1[:, x1] * fx
    return top * (1.0 - fy) + bottom * fy


def _chroma_oracle(image, factor, chroma_blur):
    """Interleaved chroma subsampling with a ``reshape(...).mean`` decimation."""
    ycc = _ycc_oracle(image)
    if factor == 1 and chroma_blur <= 0:
        return _rgb_oracle(ycc)
    chroma = ycc[..., 1:]
    if factor > 1:
        height, width = chroma.shape[:2]
        h2, w2 = height // factor * factor, width // factor * factor
        sub = (
            chroma[:h2, :w2]
            .reshape(h2 // factor, factor, w2 // factor, factor, 2)
            .mean(axis=(1, 3))
        )
        if chroma_blur > 0:
            sub = gaussian_blur(sub, chroma_blur / factor)
        chroma = _upsample_oracle(sub, image.shape[:2], factor)
    elif chroma_blur > 0:
        chroma = gaussian_blur(chroma, chroma_blur)
    return _rgb_oracle(np.concatenate([ycc[..., :1], chroma], axis=-1))


def _capture_like(shape, seed):
    """Random RGB with saturated and signed-zero patches, as clipped captures have."""
    rng = np.random.default_rng(seed)
    image = rng.random(shape)
    image[rng.random(shape) < 0.1] = 1.0
    image[rng.random(shape) < 0.1] = 0.0
    image[: shape[0] // 3, : shape[1] // 3] = -0.0
    return image


class TestChromaPlanes:
    """Plane-wise chroma subsampling is byte-identical to the interleaved form."""

    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    @pytest.mark.parametrize("chroma_blur", [0.0, 0.7])
    @pytest.mark.parametrize("shape", [(32, 48, 3), (17, 23, 3), (9, 14, 3)])
    def test_matches_interleaved_oracle(self, factor, chroma_blur, shape):
        image = _capture_like(shape, seed=factor * 10 + shape[0])
        expected = _chroma_oracle(image, factor, chroma_blur)
        out = chroma_subsample(image, factor=factor, chroma_blur=chroma_blur)
        assert out.shape == expected.shape
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))

    def test_conversions_match_interleaved_oracle(self):
        image = _capture_like((17, 23, 3), seed=8)
        ycc = rgb_to_ycbcr(image)
        assert np.array_equal(ycc.view(np.uint64), _ycc_oracle(image).view(np.uint64))
        rgb = ycbcr_to_rgb(ycc)
        assert np.array_equal(rgb.view(np.uint64), _rgb_oracle(ycc).view(np.uint64))


def _reference_bilinear_upsample(small, shape, factor):
    height, width = shape
    sh, sw = small.shape
    y0, y1, fy = _upsample_axis_coords(height, sh, factor)
    x0, x1, fx = _upsample_axis_coords(width, sw, factor)

    fx_b = fx[np.newaxis, :]
    fy_b = fy[:, np.newaxis]
    ifx_b = 1.0 - fx_b
    ify_b = 1.0 - fy_b
    rows0 = small.take(y0, axis=0)
    rows1 = small.take(y1, axis=0)
    # In-place blend on the gathered copies — same operation order (and
    # rounding) as ``a*(1-f) + b*f``, without full-size temporaries.
    top = rows0.take(x0, axis=1)
    top *= ifx_b
    tmp = rows0.take(x1, axis=1)
    tmp *= fx_b
    top += tmp
    bottom = rows1.take(x0, axis=1)
    bottom *= ifx_b
    tmp = rows1.take(x1, axis=1)
    tmp *= fx_b
    bottom += tmp
    top *= ify_b
    bottom *= fy_b
    top += bottom
    return top


class TestBilinearUpsample:
    """Blending along x on the small plane first changes no output bit."""

    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(480, 800), (17, 23), (9, 14), (31, 8), (5, 5)])
    def test_matches_four_gather_reference(self, factor, shape):
        small_shape = (shape[0] // factor, shape[1] // factor)
        small = _capture_like(small_shape, seed=factor * 7 + shape[1]) - 0.5
        out = _bilinear_upsample(small, shape, factor)
        expected = _reference_bilinear_upsample(small, shape, factor)
        assert out.shape == expected.shape == shape
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))

    def test_single_row_and_column_planes(self):
        for small_shape, shape in [((1, 7), (3, 21)), ((6, 1), (13, 3)), ((1, 1), (4, 4))]:
            small = _capture_like(small_shape, seed=3)
            out = _bilinear_upsample(small, shape, 3)
            expected = _reference_bilinear_upsample(small, shape, 3)
            assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


class TestWhiteBalanceAndQuantize:
    def test_gain_application(self):
        img = np.full((2, 2, 3), 0.5)
        out = white_balance_shift(img, (1.1, 1.0, 0.9))
        assert np.allclose(out[0, 0], [0.55, 0.5, 0.45])

    def test_gains_clip(self):
        img = np.ones((2, 2, 3))
        assert white_balance_shift(img, (1.2, 1.0, 1.0)).max() == 1.0

    def test_quantize_levels(self):
        img = np.array([[[0.5001, 0.5001, 0.5001]]])
        out = quantize_8bit(img)
        assert out.dtype == np.uint8
        assert out[0, 0, 0] == 128

    def test_quantize_idempotent(self):
        rng = np.random.default_rng(3)
        img = rng.random((8, 8, 3))
        once = quantize_8bit(img)
        assert np.array_equal(quantize_8bit(once / 255.0), once)

    def test_quantize_matches_float_levels(self):
        # uint8 / 255 is bit for bit the float quantization captures
        # used to carry: clip, scale, round half to even, divide.
        rng = np.random.default_rng(5)
        img = rng.uniform(-0.2, 1.2, (16, 16, 3))
        levels = np.round(np.clip(img, 0.0, 1.0) * 255.0) / 255.0
        assert np.array_equal(quantize_8bit(img) / 255.0, levels)
        # Exact ties go to the even level (a +0.5 floor would give 127).
        assert quantize_8bit(np.array([126.5 / 255.0]))[0] == 126


class TestCameraPipeline:
    def test_gains_deterministic_per_rng(self):
        p = CameraPipeline(wb_error=0.05)
        g1 = p.sample_gains(np.random.default_rng(9))
        g2 = p.sample_gains(np.random.default_rng(9))
        assert g1 == g2
        assert all(0.95 <= g <= 1.05 for g in g1)

    def test_zero_error_unit_gains(self):
        p = CameraPipeline(wb_error=0.0)
        assert p.sample_gains(np.random.default_rng(0)) == (1.0, 1.0, 1.0)

    def test_apply_subtle_on_block_images(self):
        # On barcode-like images (uniform 8-px blocks) the pipeline only
        # perturbs block *edges*; centers stay close to the original.
        rng = np.random.default_rng(4)
        blocks = rng.integers(0, 2, (4, 4, 3)).astype(np.float64)
        img = np.kron(blocks, np.ones((8, 8, 1)))
        p = CameraPipeline()
        out = p.apply(img, (1.02, 1.0, 0.98))
        assert out.shape == img.shape
        assert out.dtype == np.uint8
        levels = out / 255.0
        assert not np.array_equal(levels, img)
        centers = np.abs(levels[4::8, 4::8] - img[4::8, 4::8])
        assert centers.mean() < 0.05


def _reference_camera_chain(image, gains, factor, chroma_blur, hook=None,
                            chroma=chroma_subsample):
    out = white_balance_shift(image, gains)
    out = chroma(out, factor, chroma_blur)
    if hook is not None:
        out = hook(out)
    return quantize_8bit(out)


@dataclass(frozen=True)
class _Stretch(Impairment):
    """A sensor-stage test fault that pushes samples out of [0, 1]."""

    stage = "sensor"
    name = "stretch"

    def apply(self, image, rng, index):
        return image * rng.uniform(1.1, 1.4, size=3) - 0.1


@dataclass(frozen=True)
class _Record(Impairment):
    """A sensor-stage test fault that keeps the float RGB it is handed."""

    seen: list = field(default_factory=list)

    stage = "sensor"
    name = "record"

    def apply(self, image, rng, index):
        self.seen.append(image)
        return image


def _unclipped_image(shape, seed):
    """Capture-like samples with values below 0 and above 1."""
    image = _capture_like(shape, seed) * 1.4 - 0.2
    image[np.random.default_rng(seed).random(shape) < 0.05] = 1.0
    return image


_GAINS = [(1.0, 1.0, 1.0), (1.3, 0.7, 1.05), (0.96, 1.04, 0.99)]


class TestPlanePipelineMatchesInterleavedChain:
    """``CameraPipeline.apply`` writes the bytes of the interleaved chain."""

    @pytest.mark.parametrize("chroma", [chroma_subsample, _chroma_oracle],
                             ids=["chroma_subsample", "interleaved_oracle"])
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    @pytest.mark.parametrize("chroma_blur", [0.0, 0.7])
    @pytest.mark.parametrize("shape", [(32, 48, 3), (17, 23, 3), (9, 14, 3)])
    def test_matches_reference(self, chroma, factor, chroma_blur, shape):
        image = _unclipped_image(shape, seed=factor * 10 + shape[1])
        pipeline = CameraPipeline(chroma_factor=factor, chroma_blur=chroma_blur)
        for gains in _GAINS:
            out = pipeline.apply(image, gains)
            expected = _reference_camera_chain(image, gains, factor, chroma_blur, chroma=chroma)
            assert out.dtype == np.uint8 and out.shape == shape
            assert np.array_equal(out, expected)

    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    @pytest.mark.parametrize("chroma_blur", [0.0, 0.7])
    def test_sensor_hook_sees_the_reference_float_rgb(self, factor, chroma_blur):
        # 8-bit rounding hides most one-ulp slips; the float RGB the
        # sensor hook is handed does not.
        record = _Record()
        plan = FaultPlan(faults=(record,), seed=0)
        pipeline = CameraPipeline(chroma_factor=factor, chroma_blur=chroma_blur)
        for shape in [(32, 48, 3), (17, 23, 3)]:
            image = _unclipped_image(shape, seed=factor + shape[0])
            for gains in _GAINS:
                record.seen.clear()
                out = pipeline.apply(image, gains, faults=plan)
                for chroma in (chroma_subsample, _chroma_oracle):
                    expected = chroma(white_balance_shift(image, gains), factor, chroma_blur)
                    assert np.array_equal(record.seen[0].view(np.uint64),
                                          expected.view(np.uint64))
                assert np.array_equal(out, quantize_8bit(expected))

    @pytest.mark.parametrize("shape", [(1, 9, 3), (9, 1, 3), (1, 1, 3)])
    @pytest.mark.parametrize("chroma_blur", [0.0, 0.7])
    def test_single_row_and_column(self, shape, chroma_blur):
        image = _unclipped_image(shape, seed=shape[1])
        out = CameraPipeline(chroma_factor=1, chroma_blur=chroma_blur).apply(image, _GAINS[1])
        assert np.array_equal(out, _reference_camera_chain(image, _GAINS[1], 1, chroma_blur))
        with pytest.raises(ValueError, match="chroma factor 2"):
            CameraPipeline().apply(image, _GAINS[1])

    def test_paper_sensor_size(self):
        image = _unclipped_image((480, 800, 3), seed=4)
        gains = CameraPipeline().sample_gains(np.random.default_rng(6))
        out = CameraPipeline().apply(image, gains)
        assert np.array_equal(out, _reference_camera_chain(image, gains, 2, 0.7))

    def test_inputs_are_not_modified(self):
        # The plane helpers work in place; every public entry point
        # copies its input into planes it owns first.
        image = _unclipped_image((17, 23, 3), seed=5)
        before = image.copy()
        CameraPipeline().apply(image, _GAINS[1])
        CameraPipeline(chroma_factor=1).apply(image, _GAINS[1])
        chroma_subsample(image)
        rgb_to_ycbcr(image)
        ycbcr_to_rgb(image)
        assert np.array_equal(image.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("factor", [1, 2, 3])
    @pytest.mark.parametrize(
        "spec", [{"stretch": None}, {"exposure_drift": {"bias": 0.4, "wb_amplitude": 0.2}},
                 {"scanline": {"row_probability": 0.3, "mode": "noise"}},
                 {"exposure_drift": {"bias": -0.5}, "stretch": None}],
        ids=["stretch", "overexposed_wb", "scanline", "underexposed_stretch"])
    def test_sensor_fault_runs_between_float_rgb_and_samples(self, spec, factor):
        faults = [_Stretch() if name == "stretch" else FaultPlan.from_spec({name: kwargs}).faults[0]
                  for name, kwargs in spec.items()]
        plan = FaultPlan(faults=tuple(faults), seed=3)
        image = _unclipped_image((19, 26, 3), seed=factor)
        pipeline = CameraPipeline(chroma_factor=factor)
        for index in (0, 5):
            out = pipeline.apply(image, _GAINS[2], faults=plan, capture_index=index)
            expected = _reference_camera_chain(
                image, _GAINS[2], factor, 0.7,
                hook=lambda rgb, i=index: plan.apply_image("sensor", rgb, i))
            assert np.array_equal(out, expected)
        assert not np.array_equal(out, pipeline.apply(image, _GAINS[2]))

    def test_plan_without_sensor_fault_skips_the_hook(self, monkeypatch):
        plan = FaultPlan.from_spec({"glare": None, "capture_drop": None}, seed=1)
        calls = []
        monkeypatch.setattr(FaultPlan, "apply_image",
                            lambda self, *args: calls.append(args[0]))
        image = _unclipped_image((17, 23, 3), seed=9)
        out = CameraPipeline().apply(image, _GAINS[1], faults=plan, capture_index=2)
        assert calls == []
        assert np.array_equal(out, _reference_camera_chain(image, _GAINS[1], 2, 0.7))
