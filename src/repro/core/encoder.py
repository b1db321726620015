"""Sender-side frame construction.

Pipeline per frame (paper Fig. 1, sender column): payload bytes get a
CRC-16, are RS(n, k)-encoded chunk by chunk, interleaved so row bursts
spread across codewords, expanded into 2-bit color symbols and laid onto
the code area; the header (with its own CRC-8 protection) fills the
header row; structure cells (corner trackers, locators, tracking bars)
come from the layout and the frame's sequence number.

The CRC-16 + RS + interleave steps and the segmentation into frames are
:class:`FrameCode` and :meth:`FrameEncoder.encode_stream`; the COBRA and
LightSync baselines reuse both and change only how cells are painted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from ..coding.crc import crc16
from ..coding.interleave import Interleaver
from ..coding.reed_solomon import BlockCode
from .header import FrameHeader
from .layout import CellRole, FrameLayout
from .palette import (
    Color,
    bytes_to_symbols,
    tracking_color_for_sequence,
)
from .renderer import render_grid

__all__ = ["FrameCode", "FrameCodecConfig", "Frame", "FrameEncoder"]


@dataclass(frozen=True)
class FrameCode:
    """The per-frame CRC-16 + RS(n, k) + interleave code of one scheme.

    RainBar and both baselines protect a frame the same way: the payload
    is zero-padded, its CRC-16 goes into the header and after the
    payload, the message is RS-encoded chunk by chunk, and the codewords
    are interleaved so that consecutive wire bytes land in distinct
    codewords.  A scheme chooses its layout and, by overriding
    :attr:`data_capacity_bytes`, how many wire bytes its code area
    holds; everything else is sized from that.
    """

    layout: Any
    rs_n: int = 32
    rs_k: int = 24
    display_rate: int = 10  # frames per second (f_d)
    app_type: int = 0

    def __post_init__(self) -> None:
        if self.chunks_per_frame < 1:
            raise ValueError(
                "layout too small: code area cannot hold a single RS codeword "
                f"({self.data_capacity_bytes} < {self.rs_n} bytes)"
            )

    @property
    def data_capacity_bytes(self) -> int:
        """Wire bytes the code area can carry."""
        return self.layout.data_capacity_bytes

    @property
    def chunks_per_frame(self) -> int:
        """RS codewords per frame."""
        return self.data_capacity_bytes // self.rs_n

    @property
    def coded_bytes_per_frame(self) -> int:
        """Wire bytes carried by the code area (whole codewords only)."""
        return self.chunks_per_frame * self.rs_n

    @property
    def message_bytes_per_frame(self) -> int:
        """Plain bytes per frame before RS expansion (incl. the CRC-16)."""
        return self.chunks_per_frame * self.rs_k

    @property
    def payload_bytes_per_frame(self) -> int:
        """Application payload bytes per frame (message minus CRC-16)."""
        return self.message_bytes_per_frame - 2

    @property
    def interleaver(self) -> Interleaver:
        """Interleaver spreading each codeword across the code area."""
        return Interleaver(self.chunks_per_frame)

    @property
    def block_code(self) -> BlockCode:
        """The chunked RS code used for frame payloads."""
        return BlockCode(self.rs_n, self.rs_k)

    def protect(
        self, payload: bytes, sequence: int, is_last: bool
    ) -> tuple[FrameHeader, bytes, bytes]:
        """Header, zero-padded payload and wire bytes of one frame."""
        if len(payload) > self.payload_bytes_per_frame:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds the per-frame "
                f"capacity of {self.payload_bytes_per_frame}"
            )
        padded = payload.ljust(self.payload_bytes_per_frame, b"\x00")
        header = FrameHeader(
            sequence=sequence,
            display_rate=self.display_rate,
            app_type=self.app_type,
            payload_checksum=crc16(padded),
            is_last=is_last,
        )
        return header, padded, self.encode_wire(padded, header.payload_checksum)

    def encode_wire(self, padded: bytes, checksum: int) -> bytes:
        """Append the big-endian CRC-16, RS-encode and interleave."""
        message = padded + bytes([(checksum >> 8) & 0xFF, checksum & 0xFF])
        return self.interleaver.scramble(self.block_code.encode(message))


@dataclass(frozen=True)
class FrameCodecConfig(FrameCode):
    """Shared sender/receiver parameters of the RainBar barcode stream.

    ``rs_n``/``rs_k`` follow the paper's RS(n, k) intra-frame code; the
    interleaver depth is the number of RS chunks per frame.
    """

    layout: FrameLayout = field(default_factory=FrameLayout)

    @property
    def payload_bits_per_second(self) -> float:
        """Raw sender-side payload rate at the configured display rate."""
        return 8.0 * self.payload_bytes_per_frame * self.display_rate

    def with_layout(self, layout: FrameLayout) -> "FrameCodecConfig":
        """Copy of this config with a different layout (adaptive block size)."""
        return replace(self, layout=layout)


@dataclass(frozen=True)
class Frame:
    """One encoded barcode frame: header, color grid and payload."""

    header: FrameHeader
    grid: np.ndarray  # (grid_rows, grid_cols) color indices
    payload: bytes
    layout: FrameLayout

    def render(self) -> np.ndarray:
        """The frame as an RGB display image (floats in [0, 1])."""
        return render_grid(self.grid, self.layout)


class FrameEncoder:
    """Maps payload chunks onto RainBar frames.

    The baselines subclass it: they keep its frame code and segmentation
    and change only how the grid is painted.
    """

    def __init__(self, config: FrameCode):
        self.config = config

    def encode_frame(
        self,
        payload: bytes,
        sequence: int,
        is_last: bool = False,
    ) -> Frame:
        """Build the frame carrying *payload* with the given sequence number.

        *payload* may be shorter than the per-frame capacity (it is
        zero-padded); longer payloads are rejected — segmentation is
        :meth:`encode_stream`'s job.
        """
        cfg = self.config
        header, padded, wire = cfg.protect(payload, sequence, is_last)
        grid = self._structure_grid(header)
        self._fill_header(grid, header)
        self._fill_data(grid, wire)
        return Frame(header=header, grid=grid, payload=padded, layout=cfg.layout)

    def encode_stream(self, payload: bytes, start_sequence: int = 0) -> list[Frame]:
        """Segment *payload* into as many frames as needed.

        The final frame carries the last-frame flag (MSB of the sequence
        word), exactly as the paper uses it to delimit a file.
        """
        per_frame = self.config.payload_bytes_per_frame
        chunks = [payload[i : i + per_frame] for i in range(0, max(len(payload), 1), per_frame)]
        frames = []
        for idx, chunk in enumerate(chunks):
            frames.append(
                self.encode_frame(
                    chunk,
                    sequence=(start_sequence + idx) & 0x7FFF,
                    is_last=(idx == len(chunks) - 1),
                )
            )
        return frames

    # --- grid construction ------------------------------------------------

    def _structure_grid(self, header: FrameHeader) -> np.ndarray:
        """Grid with all structural cells colored; data/header left at 0."""
        layout = self.config.layout
        roles = layout.role_map
        grid = np.zeros(roles.shape, dtype=np.int64)
        tracking = int(tracking_color_for_sequence(header.sequence))
        grid[roles == int(CellRole.TRACKING_BAR)] = tracking
        grid[roles == int(CellRole.CT_RING_LEFT)] = int(Color.GREEN)
        grid[roles == int(CellRole.CT_RING_RIGHT)] = int(Color.RED)
        grid[roles == int(CellRole.CT_CENTER)] = int(Color.BLACK)
        grid[roles == int(CellRole.LOCATOR)] = int(Color.BLACK)
        return grid

    def _fill_header(self, grid: np.ndarray, header: FrameHeader) -> None:
        layout = self.config.layout
        cells = layout.header_cells
        symbols = bytes_to_symbols(header.pack())
        if len(symbols) > len(cells):
            raise ValueError("header does not fit in the header row")
        # Unused header cells are padded with the 0 symbol (white).
        padded = np.zeros(len(cells), dtype=np.int64)
        padded[: len(symbols)] = symbols
        data_colors = _symbol_color_table()
        grid[cells[:, 0], cells[:, 1]] = data_colors[padded]

    def _fill_data(self, grid: np.ndarray, wire: bytes) -> None:
        layout = self.config.layout
        cells = layout.data_cells
        symbols = bytes_to_symbols(wire)
        if len(symbols) > len(cells):
            raise ValueError("coded payload does not fit in the code area")
        padded = np.zeros(len(cells), dtype=np.int64)
        padded[: len(symbols)] = symbols
        # Deterministic filler keeps unused cells visually varied, which
        # avoids large uniform regions that would bias T_v estimation.
        filler = np.arange(len(cells) - len(symbols)) % 4
        padded[len(symbols) :] = filler
        data_colors = _symbol_color_table()
        grid[cells[:, 0], cells[:, 1]] = data_colors[padded]


def _symbol_color_table() -> np.ndarray:
    """Map 2-bit symbol -> color index as an array for fancy indexing."""
    from .palette import DATA_COLORS

    return np.array([int(c) for c in DATA_COLORS], dtype=np.int64)
