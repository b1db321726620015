"""LightSync baseline (Hu et al., MobiCom 2013; the paper's reference [8]).

LightSync's contribution is *line-level frame synchronization*: it
tolerates display rates up to the capture rate, but encodes only
**black-and-white** barcodes — 1 bit per block — which is exactly the
capacity ceiling RainBar's color design removes ("LightSync, however,
has only been shown to work efficiently for black and white barcodes").

Reproduction scope: what the paper uses LightSync for is the
capacity/throughput comparison, so this implementation reuses RainBar's
geometry substrate (layout, locators, tracking bars, header) and swaps
the data alphabet for a binary one.  Because black is reserved for the
structure cells, the binary alphabet is {white, blue} — luminance-wise
the same two-level signaling, keeping the locator machinery sound.  The
defining properties are preserved:

* 1 bit per block (half of RainBar's 2),
* per-line synchronization that survives f_d > f_c / 2, and
* RainBar's frame code by construction, so throughput differences are
  pure capacity: :class:`LightSyncConfig` is a
  :class:`~repro.core.encoder.FrameCode` sized at 1 bit per data cell,
  :class:`LightSyncEncoder` a :class:`~repro.core.encoder.FrameEncoder`
  that paints bits, and assembly packs bits into wire bytes for
  :func:`~repro.core.decoder.verify_wire`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.decoder import FrameDecoder, FrameResult, verify_wire
from ..core.encoder import FrameCode, FrameCodecConfig, FrameEncoder
from ..core.header import FrameHeader
from ..core.layout import FrameLayout
from ..core.palette import Color

__all__ = ["LightSyncConfig", "LightSyncEncoder", "LightSyncReceiver"]

#: Binary alphabet: bit 0 -> white, bit 1 -> blue.
_BIT_COLORS = (Color.WHITE, Color.BLUE)


@dataclass(frozen=True)
class LightSyncConfig(FrameCode):
    """Stream parameters of the binary scheme."""

    layout: FrameLayout = field(default_factory=FrameLayout)
    display_rate: int = 15

    @property
    def data_capacity_bytes(self) -> int:
        """1 bit per data cell."""
        return len(self.layout.data_cells) // 8

    def rainbar_equivalent(self) -> FrameCodecConfig:
        """RainBar config on the same layout (for geometry reuse)."""
        return FrameCodecConfig(
            layout=self.layout,
            rs_n=self.rs_n,
            rs_k=self.rs_k,
            display_rate=self.display_rate,
            app_type=self.app_type,
        )


class LightSyncEncoder(FrameEncoder):
    """Binary frame construction on the shared layout.

    Structure and header cells are RainBar's; only the data cells
    change, to one bit each.
    """

    def _fill_data(self, grid: np.ndarray, wire: bytes) -> None:
        cells = self.config.layout.data_cells
        bits = np.unpackbits(np.frombuffer(wire, dtype=np.uint8)).astype(np.int64)
        padded = np.concatenate([bits, np.arange(len(cells) - len(bits)) % 2])
        grid[cells[:, 0], cells[:, 1]] = np.array(_BIT_COLORS, dtype=np.int64)[padded]


class LightSyncReceiver:
    """Receive pipeline: shared geometry, binary classification.

    Wraps RainBar's :class:`FrameDecoder` for geometry recovery and
    reinterprets the recovered symbols as bits: white -> 0, blue -> 1,
    anything else (red/green misreads, erasures) -> erasure.  Stream
    reassembly across rolling-shutter splits is RainBar's: feed the
    captures to a :class:`~repro.link.receiver_modes.BufferedReceiver`
    over :attr:`decoder` and a
    :class:`~repro.core.sync.StreamReassembler` built with
    ``assemble=receiver.assemble``.
    """

    def __init__(self, config: LightSyncConfig, **decoder_kwargs: Any):
        self.config = config
        self._decoder = FrameDecoder(config.rainbar_equivalent(), **decoder_kwargs)

    @property
    def decoder(self) -> FrameDecoder:
        return self._decoder

    # -- direct single-capture decoding (the fast f_d <= f_c/2 path) ------

    def decode_capture(self, image: np.ndarray) -> FrameResult:
        """Decode a capture holding one whole frame."""
        extraction = self._decoder.extract(image)
        symbols = extraction.own_frame_symbols(self.config.layout.symbol_rows)
        return self.assemble(extraction.header, symbols)

    def assemble(self, header: FrameHeader, symbols: np.ndarray) -> FrameResult:
        """Binary assembly: symbol -> bit, then RS + CRC.

        White reads as 0, blue as 1; anything else, and any bit past the
        end of a short vector, is an erasure.
        """
        used = 8 * self.config.coded_bytes_per_frame
        symbols = np.asarray(symbols, dtype=np.int64)[:used]
        bits = np.full(used, -1, dtype=np.int64)
        bits[: len(symbols)] = np.select([symbols == 0, symbols == 3], [0, 1], -1)
        erased = bits < 0
        wire = np.packbits(np.where(erased, 0, bits).astype(np.uint8)).tobytes()
        byte_erasures = sorted(set(np.flatnonzero(erased) // 8))
        return verify_wire(self.config, header, wire, byte_erasures)
