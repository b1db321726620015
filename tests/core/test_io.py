"""PNG writer/reader and the frame-stream archive."""

import numpy as np
import pytest

from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.io import load_frame_stream, read_png, save_frame_stream, write_png


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

    @pytest.mark.parametrize("kind", ["empty", "truncated", "garbage", "capture", "npy"])
    def test_not_a_stream_is_one_value_error_naming_the_path(self, tmp_path, kind):
        cfg = FrameCodecConfig()
        good = tmp_path / "good.npz"
        save_frame_stream(good, FrameEncoder(cfg).encode_stream(b"typed errors"))
        path = tmp_path / "bad.npz"
        if kind == "empty":  # np.load: EOFError
            path.write_bytes(b"")
        elif kind == "truncated":  # zipfile.BadZipFile
            path.write_bytes(good.read_bytes()[:-16])
        elif kind == "garbage":  # ValueError: pickled data
            path.write_bytes(b"not an archive " * 8)
        elif kind == "capture":  # another archive: KeyError 'layout'
            np.savez(path, images=np.zeros((1, 4, 4, 3), np.uint8), times=np.zeros(1))
        else:  # a bare array: ``with`` raises TypeError
            with path.open("wb") as fh:
                np.save(fh, np.zeros(3))
        with pytest.raises(ValueError, match="bad.npz: not a frame stream"):
            load_frame_stream(path)

    def test_stream_without_frames_is_a_value_error(self, tmp_path):
        path = tmp_path / "none.npz"
        np.savez(path, grids=np.zeros((0, 2, 2), np.uint8), headers=np.zeros((0, 4), np.uint8),
                 payloads=np.zeros((0, 4), np.uint8), layout=np.array([10, 44, 12]))
        with pytest.raises(ValueError, match="holds no frames"):
            load_frame_stream(path)

    def test_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_frame_stream(tmp_path / "nope.npz")
