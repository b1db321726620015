"""The receiver reads an 8-bit capture where it samples it, bit for bit.

An 8-bit capture reads as ``v / 255``, but the decoder never divides
the whole frame: the samplers, the T_v estimate and the blur score
divide (or look up) only the values they use.  Each oracle below keeps
the float-frame code it replaced verbatim as ``_reference_*`` and
demands the uint8 reading equal it on ``capture / 255.0``, compared as
uint64 bits.  ``_reference_correct_location`` keeps the numpy form of
the locator refinement that the scalar loop must match, and
``_reference_gradient_energy`` the blur score that squared its
differences into new arrays, which the in-place squares must match.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.bench.workloads import default_codec, paper_link_config
from repro.channel.link import ScreenCameraLink
from repro.channel.screen import FrameSchedule
from repro.core import decoder as decoder_mod
from repro.core import recognition as recognition_mod
from repro.core.brightness import BrightnessEstimate, estimate_black_threshold
from repro.core.decoder import FrameDecoder
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.core.layout import FrameLayout
from repro.core.locators import (
    _CONVERGENCE_PX,
    _MAX_CORRECTION_ITERS,
    _MIN_BLACK_PIXELS,
    _moved_less_than,
    correct_location,
)
from repro.core.recognition import ColorClassifier
from repro.imaging import color as color_mod
from repro.imaging import metrics as metrics_mod
from repro.imaging.color import normalize_frame, rgb_to_hsv
from repro.imaging.interpolation import bilinear_coeffs, sample_bilinear, sample_nearest
from repro.imaging.metrics import gradient_energy
from repro.io import read_png

CORPUS_DIR = Path(__file__).parent.parent / "fixtures" / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.png"))


def _reference_prepare(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        image = image[..., np.newaxis]
    return image


def _reference_sample_nearest(image, xs, ys, fill=0.0):
    """The float-frame nearest sampler, kept verbatim as the oracle."""
    img = _reference_prepare(image)
    height, width, channels = img.shape
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)

    xi = np.rint(xs).astype(np.int64)
    yi = np.rint(ys).astype(np.int64)
    inside = (xi >= 0) & (xi < width) & (yi >= 0) & (yi < height)

    out = np.full(xs.shape + (channels,), fill, dtype=np.float64)
    out[inside] = img[yi[inside], xi[inside]]
    if np.asarray(image).ndim == 2:
        return out[..., 0]
    return out


def _reference_sample_bilinear(image, xs, ys, fill=0.0, coeffs=None):
    """The float-frame bilinear sampler, kept verbatim as the oracle."""
    img = _reference_prepare(image)
    height, width, channels = img.shape
    if coeffs is None:
        coeffs = bilinear_coeffs(xs, ys, height, width)
    outside, i00, i01, i10, i11, fx, fy, ifx, ify = coeffs

    flat = img.reshape(-1, channels)
    p00 = flat.take(i00, axis=0)
    p01 = flat.take(i01, axis=0)
    p10 = flat.take(i10, axis=0)
    p11 = flat.take(i11, axis=0)

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


def _reference_estimate_black_threshold(image, samples_per_region=200, mu=0.55, rng=None):
    """T_v from the float frame through the full HSV conversion, verbatim."""
    if rng is None:
        rng = np.random.default_rng(0x5EED)
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
        values.append(rgb_to_hsv(pixels)[:, 2])
    value = np.concatenate(values) if values else np.zeros(1)

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


def _reference_correct_location(black, point, block_size, iterations=_MAX_CORRECTION_ITERS):
    """The numpy form of the locator refinement, kept verbatim as the oracle."""
    height, width = black.shape
    half = max(block_size * 0.75, 1.5)
    point = np.asarray(point, dtype=np.float64).copy()
    if not np.all(np.isfinite(point)) or not np.isfinite(half):
        return None

    for __ in range(iterations):
        x0 = int(np.floor(point[0] - half))
        x1 = int(np.ceil(point[0] + half)) + 1
        y0 = int(np.floor(point[1] - half))
        y1 = int(np.ceil(point[1] + half)) + 1
        x0, x1 = max(x0, 0), min(x1, width)
        y0, y1 = max(y0, 0), min(y1, height)
        if x1 - x0 < 2 or y1 - y0 < 2:
            return None
        ys, xs = np.nonzero(black[y0:y1, x0:x1])
        if len(xs) < _MIN_BLACK_PIXELS:
            return None
        new_point = np.array([x0 + xs.mean(), y0 + ys.mean()])
        if np.linalg.norm(new_point - point) < _CONVERGENCE_PX:
            return new_point
        point = new_point
    return point


def _reference_gradient_energy(image):
    """The blur score as it squared into new arrays, kept verbatim as the oracle."""
    gray = metrics_mod._intensity(image)
    gx = np.diff(gray, axis=1)
    gy = np.diff(gray, axis=0)
    return float(np.mean(gx**2) + np.mean(gy**2))


def _bits(array) -> np.ndarray:
    array = np.ascontiguousarray(array, dtype=np.float64)
    return array.view(np.uint64)


def assert_bits_equal(actual, expected) -> None:
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert np.array_equal(_bits(actual), _bits(expected))


@pytest.fixture(scope="module")
def paper_capture() -> np.ndarray:
    """One uint8 capture at the paper's default condition."""
    config = default_codec()
    payload = (np.arange(config.payload_bytes_per_frame) % 256).astype(np.uint8).tobytes()
    image = FrameEncoder(config).encode_frame(payload, sequence=0).render()
    link = ScreenCameraLink(paper_link_config(), rng=np.random.default_rng(3))
    return link.capture_at(FrameSchedule([image], 10), 0.01).image


@pytest.fixture(scope="module")
def corpus() -> list[np.ndarray]:
    assert len(CORPUS) >= 6
    return [read_png(path) for path in CORPUS]


def _images(rng: np.random.Generator) -> list[np.ndarray]:
    return [
        rng.integers(0, 256, (17, 23, 3), dtype=np.uint8),
        rng.integers(0, 256, (17, 23), dtype=np.uint8),
        np.zeros((5, 4, 3), dtype=np.uint8),
        np.full((5, 4), 255, dtype=np.uint8),
    ]


def _points(shape: tuple[int, ...], rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Interior, edge, out-of-bounds and non-finite sample points."""
    height, width = shape[:2]
    xs = [rng.uniform(-2.0, width + 1.0, 200)]
    ys = [rng.uniform(-2.0, height + 1.0, 200)]
    edge_x = np.array([0.0, width - 1.0, 0.0, width - 1.0, width - 1.5, 0.5, width - 0.5])
    edge_y = np.array([0.0, 0.0, height - 1.0, height - 1.0, height - 1.0, 0.0, height - 0.5])
    xs.append(edge_x)
    ys.append(edge_y)
    bad = np.array([np.nan, np.inf, -np.inf, 1.0, np.nan, -1e-9, width - 1.0 + 1e-9])
    xs.append(bad)
    ys.append(np.array([1.0, 1.0, 1.0, np.nan, np.inf, 0.0, 0.0]))
    return np.concatenate(xs), np.concatenate(ys)


class TestSamplersReadUint8AsDivided:
    @pytest.mark.parametrize("fill", [0.0, 0.1, -1.0, np.nan])
    def test_bilinear_matches_the_divided_frame(self, fill):
        rng = np.random.default_rng(1)
        for image in _images(rng):
            xs, ys = _points(image.shape, rng)
            expected = _reference_sample_bilinear(image / 255.0, xs, ys, fill=fill)
            assert_bits_equal(sample_bilinear(image, xs, ys, fill=fill), expected)

    def test_bilinear_with_precomputed_coeffs(self):
        rng = np.random.default_rng(2)
        image = rng.integers(0, 256, (30, 40, 3), dtype=np.uint8)
        xs, ys = _points(image.shape, rng)
        coeffs = bilinear_coeffs(xs, ys, 30, 40)
        expected = _reference_sample_bilinear(image / 255.0, None, None, 0.1, coeffs)
        assert_bits_equal(sample_bilinear(image, None, None, 0.1, coeffs), expected)

    def test_bilinear_grid_shaped_points(self):
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, (12, 9, 3), dtype=np.uint8)
        xs = rng.uniform(-1.0, 10.0, (7, 9))
        ys = rng.uniform(-1.0, 13.0, (7, 9))
        expected = _reference_sample_bilinear(image / 255.0, xs, ys)
        assert_bits_equal(sample_bilinear(image, xs, ys), expected)

    # rint of a non-finite point casts to an arbitrary integer (numpy
    # warns), which the bounds test then rejects.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    @pytest.mark.parametrize("fill", [0.0, -1.0, np.nan])
    def test_nearest_matches_the_divided_frame(self, fill):
        rng = np.random.default_rng(4)
        for image in _images(rng):
            xs, ys = _points(image.shape, rng)
            expected = _reference_sample_nearest(image / 255.0, xs, ys, fill=fill)
            assert_bits_equal(sample_nearest(image, xs, ys, fill=fill), expected)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_float_and_integer_images_sample_as_before(self):
        rng = np.random.default_rng(5)
        images = [rng.random((11, 13, 3)), rng.random((11, 13)) * 7.0,
                  rng.integers(0, 1000, (11, 13, 3)).astype(np.int64)]
        for image in images:
            xs, ys = _points(image.shape, rng)
            assert_bits_equal(
                sample_bilinear(image, xs, ys, fill=0.3),
                _reference_sample_bilinear(image, xs, ys, fill=0.3),
            )
            assert_bits_equal(
                sample_nearest(image, xs, ys), _reference_sample_nearest(image, xs, ys)
            )

    def test_block_centres_of_every_corpus_capture(self, corpus):
        rng = np.random.default_rng(6)
        for image in corpus:
            xs, ys = _points(image.shape, rng)
            expected = _reference_sample_bilinear(image / 255.0, xs, ys)
            assert_bits_equal(sample_bilinear(image, xs, ys), expected)


def _assert_same_estimate(got: BrightnessEstimate, want: BrightnessEstimate) -> None:
    for name in ("t_value", "mean_black_value", "mean_other_value"):
        assert float(getattr(got, name)).hex() == float(getattr(want, name)).hex(), name
    assert got.sample_count == want.sample_count


class TestBrightnessReadsGatheredSamples:
    def test_uint8_capture_estimates_as_its_divided_frame(self, paper_capture, corpus):
        rng = np.random.default_rng(7)
        images = [
            paper_capture,
            *corpus,
            rng.integers(0, 256, (40, 60, 3), dtype=np.uint8),
            np.zeros((40, 60, 3), dtype=np.uint8),
            np.full((40, 60, 3), 255, dtype=np.uint8),
        ]
        for image in images:
            divided = image / 255.0
            want = _reference_estimate_black_threshold(divided)
            _assert_same_estimate(estimate_black_threshold(image), want)
            _assert_same_estimate(estimate_black_threshold(divided), want)

    def test_float_frames_estimate_as_before(self):
        rng = np.random.default_rng(8)
        for image in (rng.random((30, 50, 3)), rng.random((31, 9, 3)) * 0.2):
            _assert_same_estimate(
                estimate_black_threshold(image), _reference_estimate_black_threshold(image)
            )


class TestBlurScoreOfUint8:
    def test_gradient_energy_equals_the_divided_frame(self, paper_capture, corpus):
        rng = np.random.default_rng(9)
        images = [
            paper_capture,
            *corpus,
            rng.integers(0, 256, (64, 80, 3), dtype=np.uint8),
            rng.integers(0, 256, (64, 80), dtype=np.uint8),
            np.zeros((32, 40, 3), dtype=np.uint8),
            np.full((32, 40, 3), 255, dtype=np.uint8),
        ]
        for image in images:
            divided = image / 255.0
            assert gradient_energy(image).hex() == gradient_energy(divided).hex()

    def test_in_place_squares_score_as_the_reference(self, paper_capture, corpus):
        rng = np.random.default_rng(10)
        noise = rng.integers(0, 256, (64, 80, 3), dtype=np.uint8)
        images = [
            paper_capture,
            *corpus,
            noise,
            noise[..., 0],
            noise / 255.0,
            rng.random((33, 47)),
        ]
        for image in images:
            before = image.copy()
            assert gradient_energy(image).hex() == _reference_gradient_energy(image).hex()
            assert np.array_equal(image, before)  # the caller's frame is never squared

    def test_flat_frames_score_zero(self):
        for level in (0, 255):
            assert gradient_energy(np.full((8, 9, 3), level, dtype=np.uint8)) == 0.0


class TestScalarLocatorRefinement:
    @staticmethod
    def _assert_same(black, point, block_size):
        expected = _reference_correct_location(black, point, block_size)
        got = correct_location(black, point, block_size)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert_bits_equal(got, expected)

    def test_random_masks_and_seeds(self):
        rng = np.random.default_rng(10)
        for __ in range(300):
            height, width = rng.integers(2, 60, size=2)
            black = rng.random((height, width)) < rng.uniform(0.0, 1.0)
            point = rng.uniform(-10.0, max(height, width) + 10.0, 2)
            self._assert_same(black, point, float(rng.uniform(0.5, 20.0)))

    def test_empty_clipped_and_all_black_windows(self):
        empty = np.zeros((40, 50), dtype=bool)
        full = np.ones((40, 50), dtype=bool)
        for black in (empty, full):
            for point in ([20.0, 20.0], [0.0, 0.0], [49.3, 39.8], [-4.0, 10.0],
                          [55.0, 45.0], [49.9, 0.1], [-100.0, -100.0]):
                for block in (1.0, 2.5, 12.0, 80.0):
                    self._assert_same(black, np.array(point), block)

    def test_windows_that_never_converge(self):
        yy, xx = np.mgrid[0:40, 0:600]
        wedge = np.abs(yy - 20) * 6 < xx
        seed = np.array([30.0, 20.0])
        capped = _reference_correct_location(wedge, seed, 12.0)
        # Still moving after the last iteration: a 13th moves it again.
        longer = _reference_correct_location(wedge, seed, 12.0, _MAX_CORRECTION_ITERS + 1)
        assert not np.array_equal(capped, longer)
        self._assert_same(wedge, seed, 12.0)
        for x in (25.0, 60.5, 120.25):
            self._assert_same(wedge, np.array([x, 20.0]), 12.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_seeds_and_block_sizes(self, bad):
        black = np.ones((20, 20), dtype=bool)
        assert correct_location(black, np.array([bad, 5.0]), 6.0) is None
        assert correct_location(black, np.array([5.0, bad]), 6.0) is None
        # A -inf block size gives the minimum window, the others none.
        self._assert_same(black, np.array([5.0, 5.0]), bad)

    def test_every_corpus_capture(self, corpus, paper_capture):
        rng = np.random.default_rng(11)
        for image in [paper_capture, *corpus]:
            t_value = estimate_black_threshold(image).t_value
            black = ColorClassifier(t_value=t_value).black_mask(image)
            height, width = black.shape
            # Seeds on black blocks and off them, both grid-aligned and
            # sub-pixel; block sizes around the captured ones.
            ys, xs = np.nonzero(black)
            picks = rng.integers(0, len(xs), 150)
            seeds = np.stack([xs[picks], ys[picks]], axis=1) + rng.uniform(-3, 3, (150, 2))
            seeds = np.concatenate([seeds, rng.uniform(0, [width, height], (100, 2))])
            for point in seeds:
                self._assert_same(black, point, float(rng.uniform(4.0, 16.0)))

    @pytest.mark.filterwarnings("ignore:overflow encountered in dot")
    def test_convergence_test_decides_as_the_norm(self):
        # Steps whose squared length sits within a few ulps of the
        # tolerance's square, where only the norm itself can decide.
        rng = np.random.default_rng(12)
        tol = _CONVERGENCE_PX
        for angle in rng.uniform(0.0, 2.0 * np.pi, 4000):
            radius = tol
            for __ in range(int(rng.integers(0, 6))):
                radius = np.nextafter(radius, 1.0 if rng.random() < 0.5 else 0.0)
            dx, dy = float(radius * np.cos(angle)), float(radius * np.sin(angle))
            expected = bool(np.linalg.norm(np.array([dx, dy])) < tol)
            assert _moved_less_than(dx, dy, tol) == expected
        # Just outside the band the scalar sum decides on its own.
        for scale in (1.0 - 2e-12, 1.0 - 6e-13, 1.0 + 6e-13, 1.0 + 2e-12):
            for angle in rng.uniform(0.0, 2.0 * np.pi, 200):
                dx, dy = tol * scale * np.cos(angle), tol * scale * np.sin(angle)
                expected = bool(np.linalg.norm(np.array([dx, dy])) < tol)
                assert _moved_less_than(float(dx), float(dy), tol) == expected == (scale < 1)
        for dx, dy in ((0.0, 0.0), (tol, 0.0), (0.0, -tol), (1e200, 1e200), (0.03, 0.04)):
            expected = bool(np.linalg.norm(np.array([dx, dy])) < tol)
            assert _moved_less_than(dx, dy, tol) == expected


def _corpus_decoder() -> FrameDecoder:
    # Must match tests/fixtures/regen_corpus.py's GRID.
    layout = FrameLayout(grid_rows=24, grid_cols=44, block_px=8)
    return FrameDecoder(FrameCodecConfig(layout=layout, display_rate=10))


def _assert_same_extraction(decoder: FrameDecoder, image: np.ndarray) -> None:
    got, got_diag = decoder.extract_diagnosed(image)
    want, want_diag = decoder.extract_diagnosed(image / 255.0)
    assert (got is None) == (want is None)
    if got is None:
        assert got_diag.failure == want_diag.failure
        return
    assert got.header == want.header
    for name in ("data_symbols", "row_assignment"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert_bits_equal(got.centers, want.centers)
    assert_bits_equal(got.row_confidence, want.row_confidence)
    for name in ("t_value", "block_size", "locator_refinement", "corner_purity"):
        assert float(getattr(got_diag, name)).hex() == float(getattr(want_diag, name)).hex()


class TestExtractReadsTheCapture:
    def test_extraction_equals_the_divided_frame(self, paper_capture, corpus):
        _assert_same_extraction(FrameDecoder(default_codec()), paper_capture)
        decoder = _corpus_decoder()
        for image in corpus:
            _assert_same_extraction(decoder, image)

    def test_uint8_capture_is_never_normalized(self, paper_capture, monkeypatch):
        calls = []

        def spy(image):
            calls.append(image)
            return normalize_frame(image)

        for module in (decoder_mod, recognition_mod, color_mod):
            monkeypatch.setattr(module, "normalize_frame", spy)
        extraction = FrameDecoder(default_codec()).extract(paper_capture)
        assert calls == []
        assert extraction.image is paper_capture

    def test_float_capture_still_decodes_its_float_frame(self, paper_capture):
        divided = paper_capture / 255.0
        extraction = FrameDecoder(default_codec()).extract(divided)
        assert extraction.image.dtype == np.float64
        assert np.array_equal(extraction.image, divided)
