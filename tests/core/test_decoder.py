"""End-to-end FrameDecoder behaviour on controlled distortions."""

import numpy as np
import pytest

from repro.coding.crc import crc16
from repro.core.decoder import DecodeError, FrameDecoder, assemble_frame
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.core.header import FrameHeader
from repro.core.layout import FrameLayout
from repro.imaging.filters import gaussian_blur
from repro.imaging.geometry import PinholeSetup, warp_perspective
from repro.imaging.noise import add_gaussian_noise


@pytest.fixture(scope="module")
def config():
    return FrameCodecConfig(layout=FrameLayout(34, 60, 12), display_rate=10)


@pytest.fixture(scope="module")
def encoder(config):
    return FrameEncoder(config)


@pytest.fixture(scope="module")
def payload(config):
    rng = np.random.default_rng(77)
    return bytes(rng.integers(0, 256, config.payload_bytes_per_frame, dtype=np.uint8))


@pytest.fixture(scope="module")
def frame(encoder, payload):
    return encoder.encode_frame(payload, sequence=9, is_last=True)


def project(image, angle=0.0, distance=12.0, sensor=(480, 800), fill=0.1):
    setup = PinholeSetup(
        screen_size_px=image.shape[:2],
        sensor_size_px=sensor,
        view_angle_deg=angle,
        distance_cm=distance,
    )
    return warp_perspective(image, setup.homography(), sensor, fill=fill)


class TestCleanDecode:
    def test_pristine(self, config, frame, payload):
        result = FrameDecoder(config).decode_capture(frame.render())
        assert result.ok
        assert result.sequence == 9
        assert result.is_last
        assert result.payload == payload

    def test_extraction_metadata(self, config, frame):
        ext = FrameDecoder(config).extract(frame.render())
        assert ext.header.sequence == 9
        assert np.all(ext.row_assignment == 0)
        assert ext.diagnostics.locator_refinement == 1.0
        assert ext.diagnostics.block_size == pytest.approx(12, abs=2)
        assert not ext.has_next_frame_rows


class TestGeometricRobustness:
    @pytest.mark.parametrize("angle", [0, 15, 30, 45])
    def test_view_angles(self, config, frame, payload, angle):
        captured = project(frame.render(), angle=angle)
        result = FrameDecoder(config).decode_capture(captured)
        assert result.ok, f"failed at {angle} deg"
        assert result.payload == payload

    @pytest.mark.parametrize("distance", [9.0, 12.0, 18.0])
    def test_distances(self, config, frame, payload, distance):
        captured = project(frame.render(), distance=distance)
        result = FrameDecoder(config).decode_capture(captured)
        assert result.ok, f"failed at {distance} cm"

    def test_blur_and_noise(self, config, frame, payload):
        rng = np.random.default_rng(5)
        captured = project(frame.render(), angle=10)
        captured = gaussian_blur(captured, 1.0)
        captured = add_gaussian_noise(captured, 0.02, rng)
        result = FrameDecoder(config).decode_capture(captured)
        assert result.ok
        assert result.payload == payload


class TestFailureModes:
    def test_blank_image(self, config):
        with pytest.raises(DecodeError):
            FrameDecoder(config).extract(np.full((480, 800, 3), 0.5))

    def test_header_row_destroyed(self, config, frame):
        img = frame.render().copy()
        layout = config.layout
        y0 = layout.header_row * layout.block_px
        img[y0 : y0 + layout.block_px, 4 * layout.block_px : -5 * layout.block_px] = 0.5
        with pytest.raises(DecodeError, match="header"):
            FrameDecoder(config).extract(img)

    def test_fails_gracefully_under_heavy_corruption(self, config, encoder):
        # Corrupt half the data blocks with random colors: the decoder
        # must either raise DecodeError (geometry lost) or return a
        # FrameResult with ok=False and a recorded reason — never a
        # silently wrong payload.
        frame = encoder.encode_frame(b"x", sequence=1)
        img = frame.render().copy()
        layout = config.layout
        rng = np.random.default_rng(1)
        cells = layout.data_cells
        pick = rng.choice(len(cells), size=len(cells) // 2, replace=False)
        for idx in pick:
            r, c = cells[idx]
            y, x = r * layout.block_px, c * layout.block_px
            img[y : y + layout.block_px, x : x + layout.block_px] = rng.random(3)
        try:
            result = FrameDecoder(config).decode_capture(img)
        except DecodeError:
            return
        assert not result.ok
        assert result.failure

    @pytest.mark.parametrize(
        "empty",
        [
            [],
            (),
            np.empty((0, 480, 3)),
            np.empty((480, 0, 3)),
            np.empty((0, 0, 0)),
            iter([]),
        ],
        ids=["list", "tuple", "zero-rows", "zero-cols", "zero-all", "iterator"],
    )
    def test_empty_frame_sequence_is_diagnosed_not_raised(self, config, empty):
        # Regression: an empty capture (or a non-array iterable reaching
        # the decoder, e.g. an exhausted frame iterator) must come back
        # as a diagnosed input-stage failure, never an unhandled
        # TypeError/IndexError out of the pipeline.
        extraction, diagnostics = FrameDecoder(config).extract_diagnosed(empty)
        assert extraction is None
        assert diagnostics.failure is not None
        assert diagnostics.failure.stage == "input"

    def test_float_nan_row_decodes_like_a_zero_row(self, config, frame):
        # Non-8-bit captures may carry NaN rows (corrupted sensor
        # readout); the input stage treats them as black.
        capture = project(frame.render())
        row = capture.shape[0] // 2
        with_nan, zeroed = capture.copy(), capture.copy()
        with_nan[row] = np.nan
        zeroed[row] = 0.0
        decoder = FrameDecoder(config)
        expected = decoder.decode_capture(zeroed)
        assert expected.ok
        assert decoder.decode_capture(with_nan) == expected

    def test_empty_decode_stream_inputs_map_to_none(self, config):
        decoder = FrameDecoder(config)
        assert decoder.decode_stream([]) == []
        results = decoder.decode_stream([np.empty((0, 480, 3))])
        assert results == [None]


class TestAssembleFrame:
    def make_header(self, config, payload):
        return FrameHeader(
            sequence=0,
            display_rate=10,
            app_type=0,
            payload_checksum=crc16(payload),
        )

    def truth_symbols(self, config, encoder, payload):
        frame = encoder.encode_frame(payload, sequence=0)
        table = np.full(8, -1, dtype=np.int64)
        for sym, color in enumerate((1, 2, 3, 4)):
            table[color] = sym
        cells = config.layout.data_cells
        return table[frame.grid[cells[:, 0], cells[:, 1]]], frame.header

    def test_perfect_symbols(self, config, encoder, payload):
        symbols, header = self.truth_symbols(config, encoder, payload)
        result = assemble_frame(config, header, symbols)
        assert result.ok and result.payload == payload

    def test_symbol_errors_corrected(self, config, encoder, payload):
        symbols, header = self.truth_symbols(config, encoder, payload)
        rng = np.random.default_rng(2)
        bad = symbols.copy()
        # Flip 13 active symbols (~1 byte error per RS chunk after
        # interleaving): safely within the per-chunk budget of t = 4.
        active = 4 * config.coded_bytes_per_frame
        for idx in rng.choice(active, size=13, replace=False):
            bad[idx] = (bad[idx] + 1) % 4
        result = assemble_frame(config, header, bad)
        assert result.ok and result.payload == payload

    def test_erasures_tracked(self, config, encoder, payload):
        symbols, header = self.truth_symbols(config, encoder, payload)
        bad = symbols.copy()
        bad[:12] = -1
        result = assemble_frame(config, header, bad)
        assert result.ok
        assert result.erased_bytes >= 3

    def test_checksum_mismatch_flagged(self, config, encoder, payload):
        symbols, header = self.truth_symbols(config, encoder, payload)
        wrong_header = FrameHeader(
            sequence=0, display_rate=10, app_type=0, payload_checksum=0
        )
        result = assemble_frame(config, wrong_header, symbols)
        assert not result.ok
        assert "CRC" in result.failure


class TestAblationKnobs:
    def test_without_middle_locator_still_decodes_frontal(self, config, frame, payload):
        dec = FrameDecoder(config, use_middle_locator=False)
        result = dec.decode_capture(frame.render())
        assert result.ok

    def test_linear_interpolation_fails_at_high_angle(self, config, frame):
        captured = project(frame.render(), angle=30)
        dec = FrameDecoder(config, projective_interpolation=False)
        # Either the header becomes unreadable (DecodeError) or the
        # payload CRC fails: Eq. (1)'s drift at 30 deg exceeds a block.
        try:
            result = dec.decode_capture(captured)
            decoded_ok = result.ok
        except DecodeError:
            decoded_ok = False
        assert not decoded_ok

    def test_mean_filter_radius_zero_pristine_ok(self, config, frame, payload):
        dec = FrameDecoder(config, mean_filter_radius=0)
        assert dec.decode_capture(frame.render()).ok
