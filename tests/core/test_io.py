"""PNG writer/reader and stream archives."""

import numpy as np
import pytest

from repro.channel.link import Capture
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.io import (
    load_captures,
    load_frame_stream,
    read_png,
    save_captures,
    save_frame_stream,
    write_png,
)


class TestPng:
    def test_roundtrip_uint8(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (20, 30, 3), dtype=np.uint8)
        path = tmp_path / "t.png"
        write_png(path, img)
        assert np.array_equal(read_png(path), img)

    def test_roundtrip_float(self, tmp_path):
        img = np.linspace(0, 1, 20 * 30 * 3).reshape(20, 30, 3)
        path = tmp_path / "t.png"
        write_png(path, img)
        back = read_png(path)
        assert np.abs(back.astype(float) / 255 - img).max() < 1 / 255

    def test_grayscale_promoted(self, tmp_path):
        img = np.zeros((5, 7))
        path = tmp_path / "g.png"
        write_png(path, img)
        assert read_png(path).shape == (5, 7, 3)

    def test_signature_check(self, tmp_path):
        path = tmp_path / "bad.png"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError):
            read_png(path)

    def test_barcode_frame_roundtrip(self, tmp_path):
        frame = FrameEncoder(FrameCodecConfig()).encode_frame(b"png", sequence=1)
        path = tmp_path / "frame.png"
        write_png(path, frame.render())
        back = read_png(path).astype(np.float64) / 255.0
        # The quantized render still decodes.
        from repro.core.decoder import FrameDecoder

        result = FrameDecoder(FrameCodecConfig()).decode_capture(back)
        assert result.ok


class TestFrameStreamArchive:
    def test_roundtrip(self, tmp_path):
        cfg = FrameCodecConfig()
        frames = FrameEncoder(cfg).encode_stream(bytes(range(256)) * 3)
        path = tmp_path / "stream.npz"
        save_frame_stream(path, frames)
        loaded = load_frame_stream(path)
        assert len(loaded) == len(frames)
        for a, b in zip(frames, loaded):
            assert a.header == b.header
            assert a.payload == b.payload
            assert np.array_equal(a.grid, b.grid)
            assert np.array_equal(a.render(), b.render())

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_frame_stream(tmp_path / "e.npz", [])


class TestCaptureArchive:
    def test_roundtrip(self, tmp_path):
        # Captures are uint8; the archive keeps every byte and the dtype.
        rng = np.random.default_rng(1)
        captures = [
            Capture(time=0.1 * i, image=rng.integers(0, 256, (12, 16, 3), dtype=np.uint8))
            for i in range(3)
        ]
        path = tmp_path / "session.npz"
        save_captures(path, captures)
        loaded = load_captures(path)
        assert len(loaded) == 3
        for a, b in zip(captures, loaded):
            assert b.time == a.time
            assert b.image.dtype == np.uint8
            assert np.array_equal(a.image, b.image)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_captures(tmp_path / "e.npz", [])
