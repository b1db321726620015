"""LightSync (binary alphabet) and RDCode (tri-level EC, palettes)."""

import numpy as np
import pytest

from repro.baselines.lightsync import LightSyncConfig, LightSyncEncoder, LightSyncReceiver
from repro.baselines.rdcode import (
    PaletteClassifier,
    RDCodeCodec,
    RDCodeLayout,
    rdcode_layout_report,
)
from repro.channel.link import LinkConfig, ScreenCameraLink
from repro.channel.screen import FrameSchedule
from repro.core.encoder import FrameCodecConfig
from repro.core.palette import Color
from repro.core.sync import StreamReassembler
from repro.link.receiver_modes import BufferedReceiver


class TestLightSyncCapacity:
    def test_half_of_rainbar(self):
        ls = LightSyncConfig()
        rb = FrameCodecConfig()
        # 1 bit/block vs 2 bits/block: capacity before framing is half.
        assert ls.data_capacity_bytes == rb.layout.data_capacity_bytes // 2

    def test_payload_per_frame_below_rainbar(self):
        assert LightSyncConfig().payload_bytes_per_frame < FrameCodecConfig().payload_bytes_per_frame


class TestLightSyncRoundtrip:
    @pytest.fixture(scope="class")
    def setup(self):
        cfg = LightSyncConfig(display_rate=10)
        enc = LightSyncEncoder(cfg)
        rng = np.random.default_rng(0)
        payload = bytes(rng.integers(0, 256, cfg.payload_bytes_per_frame, dtype=np.uint8))
        return cfg, enc, payload

    def test_grid_uses_binary_alphabet(self, setup):
        cfg, enc, payload = setup
        frame = enc.encode_frame(payload, sequence=0)
        cells = cfg.layout.data_cells
        data_colors = set(np.unique(frame.grid[cells[:, 0], cells[:, 1]]))
        assert data_colors <= {int(Color.WHITE), int(Color.BLUE)}

    def test_pristine_decode(self, setup):
        cfg, enc, payload = setup
        frame = enc.encode_frame(payload, sequence=0)
        rx = LightSyncReceiver(cfg)
        result = rx.decode_capture(frame.render())
        assert result.ok and result.payload == payload

    def test_through_channel(self, setup):
        cfg, enc, payload = setup
        frames = enc.encode_stream(payload * 2)
        sched = FrameSchedule([f.render() for f in frames], display_rate=10)
        link = ScreenCameraLink(LinkConfig(), rng=np.random.default_rng(1))
        rx = LightSyncReceiver(cfg)
        reassembler = StreamReassembler(cfg.rainbar_equivalent(), assemble=rx.assemble)
        report = BufferedReceiver(rx.decoder, reassembler).process(link.capture_stream(sched))
        results = report.results
        assert report.captures_dropped_error == 0
        assert sum(r.ok for r in results) == len(frames)

    def test_symbol_2_is_erasure(self, setup):
        """Green/red misreads (impossible encode values) become erasures."""
        cfg, enc, payload = setup
        frame = enc.encode_frame(payload, sequence=0)
        rx = LightSyncReceiver(cfg)
        ext = rx.decoder.extract(frame.render())
        ext.data_symbols[:10] = 2  # pretend green misreads
        result = rx.assemble(ext.header, ext.data_symbols)
        assert result.ok  # RS erasure decoding recovers
        assert result.payload == payload


class TestRDCodeLayout:
    def test_s4_accounting(self):
        layout = RDCodeLayout()
        report = rdcode_layout_report(layout)
        assert report["squares"] == 72
        assert report["data_squares"] == 71
        assert report["data_blocks"] == 71 * (144 - 6)
        assert report["wasted_blocks"] > 0  # grid remainder outside squares

    def test_smaller_than_rainbar_and_cobra(self):
        from repro.core.capacity import cobra_code_blocks, rainbar_code_blocks_paper

        rd = RDCodeLayout().data_blocks
        assert rd < cobra_code_blocks() < rainbar_code_blocks_paper()


class TestRDCodeCodec:
    @pytest.fixture(scope="class")
    def codec(self):
        return RDCodeCodec(frame_payload=128, window=4)

    def test_always_on_overhead(self, codec):
        assert codec.overhead_factor > 1.5
        assert codec.frame_wire_bytes > codec.frame_payload

    def test_clean_roundtrip(self, codec):
        data = bytes(range(200))
        wires = codec.encode_stream(data)
        assert codec.decode_stream(wires, len(data)) == data

    def test_byte_errors_within_budget(self, codec):
        rng = np.random.default_rng(2)
        data = bytes(rng.integers(0, 256, 300, dtype=np.uint8))
        wires = [bytearray(w) for w in codec.encode_stream(data)]
        for w in wires:
            for pos in rng.choice(len(w), 2, replace=False):
                w[pos] ^= 0x55
        assert codec.decode_stream([bytes(w) for w in wires], len(data)) == data

    def test_one_lost_frame_per_window_recovered(self, codec):
        data = bytes(range(250))
        wires = list(codec.encode_stream(data))
        wires[1] = None
        assert codec.decode_stream(wires, len(data)) == data

    def test_two_losses_in_window_fatal(self, codec):
        data = bytes(range(250))
        wires = list(codec.encode_stream(data))
        wires[0] = None
        wires[1] = None
        assert codec.decode_stream(wires, len(data)) is None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RDCodeCodec(intra_n=8, intra_k=8)
        with pytest.raises(ValueError):
            RDCodeCodec(window=1)

    def test_payload_too_large(self, codec):
        with pytest.raises(ValueError):
            codec.encode_frame(bytes(codec.frame_payload + 1))


class TestPaletteClassifier:
    def test_ideal_palette(self):
        pc = PaletteClassifier()
        pixels = np.array([[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        assert pc.classify(pixels).tolist() == [0, 1, 2, 3]

    def test_calibration_free_under_color_shift(self):
        # Simulate a warm white-balance shift applied to palette AND data.
        shift = np.array([1.0, 0.85, 0.7])
        base = np.array([[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        observed_palette = base * shift
        pc = PaletteClassifier.from_observed(observed_palette)
        rng = np.random.default_rng(3)
        data = base[[2, 0, 3, 1, 1, 2]] * shift + rng.normal(0, 0.05, (6, 3))
        assert pc.classify(data).tolist() == [2, 0, 3, 1, 1, 2]

    def test_bad_palette_shape(self):
        with pytest.raises(ValueError):
            PaletteClassifier(np.zeros((3, 3)))
