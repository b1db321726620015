"""Persistence and export for encoded frames and barcode images.

A sender in the wild needs to *show* the barcodes, so the library ships:

* a dependency-free **PNG writer/reader** (RGB8, zlib-deflated — enough
  to display or inspect any rendered frame without Pillow/OpenCV);
* an **NPZ frame-stream archive** (grids + headers + payloads), which
  ``repro encode`` writes and ``repro info`` reads.

Recorded capture sessions are capture traces (:mod:`repro.io.trace`).
"""

from __future__ import annotations

import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np

from ..core.encoder import Frame
from ..core.header import FrameHeader

__all__ = [
    "write_png",
    "read_png",
    "save_frame_stream",
    "load_frame_stream",
]

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def write_png(path: str | Path, image: np.ndarray) -> None:
    """Write a float (0..1) or uint8 RGB/grayscale image as an 8-bit PNG."""
    image = np.asarray(image)
    if image.dtype != np.uint8:
        image = (np.clip(image, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    if image.ndim == 2:
        image = np.stack([image] * 3, axis=-1)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("write_png expects (H, W), or (H, W, 3)")
    height, width = image.shape[:2]

    # Filter type 0 (None) per scanline.
    raw = b"".join(b"\x00" + image[row].tobytes() for row in range(height))
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    data = (
        _PNG_SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw, level=6))
        + _chunk(b"IEND", b"")
    )
    Path(path).write_bytes(data)


def read_png(path: str | Path) -> np.ndarray:
    """Read back an 8-bit RGB PNG written by :func:`write_png`.

    Supports filter type 0 only (what :func:`write_png` emits); raises
    on anything fancier, keeping this a round-trip utility rather than a
    general decoder.
    """
    blob = Path(path).read_bytes()
    if not blob.startswith(_PNG_SIGNATURE):
        raise ValueError("not a PNG file")
    pos = len(_PNG_SIGNATURE)
    width = height = None
    idat = bytearray()
    while pos < len(blob):
        (length,) = struct.unpack_from(">I", blob, pos)
        tag = blob[pos + 4 : pos + 8]
        payload = blob[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            width, height, depth, color, *_ = struct.unpack(">IIBBBBB", payload)
            if depth != 8 or color != 2:
                raise ValueError("only 8-bit RGB PNGs are supported")
        elif tag == b"IDAT":
            idat.extend(payload)
        elif tag == b"IEND":
            break
    if width is None or height is None:
        raise ValueError("missing IHDR")
    raw = zlib.decompress(bytes(idat))
    stride = 1 + 3 * width
    rows = []
    for row in range(height):
        line = raw[row * stride : (row + 1) * stride]
        if line[0] != 0:
            raise ValueError("unsupported PNG filter type; use write_png output")
        rows.append(np.frombuffer(line[1:], dtype=np.uint8).reshape(width, 3))
    return np.stack(rows)


def save_frame_stream(path: str | Path, frames: list[Frame]) -> None:
    """Archive an encoded frame stream (grids + headers) as .npz.

    Grids are stored instead of rendered pixels: they are ~100x smaller
    and :func:`load_frame_stream` re-renders losslessly.
    """
    if not frames:
        raise ValueError("no frames to save")
    layout = frames[0].layout
    # uint8 matrices, not |S arrays: NumPy byte-string dtypes silently
    # strip trailing NULs, which zero-padded payloads are full of.
    headers = np.stack(
        [np.frombuffer(f.header.pack(), dtype=np.uint8) for f in frames]
    )
    payloads = np.stack([np.frombuffer(f.payload, dtype=np.uint8) for f in frames])
    np.savez_compressed(
        Path(path),
        grids=np.stack([f.grid for f in frames]),
        headers=headers,
        payloads=payloads,
        layout=np.array([layout.grid_rows, layout.grid_cols, layout.block_px]),
    )


def load_frame_stream(path: str | Path) -> list[Frame]:
    """Load a stream saved by :func:`save_frame_stream`.

    A file that is not such a stream (empty, truncated, garbage, another
    archive, or a bare ``.npy`` array, which ``with`` refuses with
    :exc:`TypeError`) raises :exc:`ValueError` naming *path*; a file
    the OS cannot open raises :exc:`OSError`.
    """
    from ..core.layout import FrameLayout

    try:
        with np.load(Path(path), allow_pickle=False) as data:
            rows, cols, block = (int(v) for v in data["layout"])
            grids, headers, payloads = data["grids"], data["headers"], data["payloads"]
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(
            f"{path}: not a frame stream ({type(exc).__name__}: {exc})"
        ) from exc
    if not len(grids):
        raise ValueError(f"{path}: holds no frames")
    layout = FrameLayout(grid_rows=rows, grid_cols=cols, block_px=block)
    return [
        Frame(
            header=FrameHeader.unpack(header_bytes.tobytes()),
            grid=grid.copy(),
            payload=payload.tobytes(),
            layout=layout,
        )
        for grid, header_bytes, payload in zip(grids, headers, payloads)
    ]
