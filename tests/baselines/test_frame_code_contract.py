"""One frame-code contract, checked on RainBar, COBRA and LightSync.

The three schemes share the per-frame CRC-16 + RS(n, k) + interleave
code and differ only in how a wire byte becomes cells: four 2-bit
symbols for RainBar and COBRA, eight 1-bit blocks for LightSync.  Each
scheme's assembler must therefore keep the paper's promise (§III-A, §V)
in the same way: up to n - k erasures or floor((n - k) / 2) errors in
every codeword return the exact payload, heavier corruption never
returns ``ok`` with other bytes, a frame whose header carries another
payload's checksum fails its CRC, and a truncated symbol vector is a
failed frame, not an exception.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.baselines.cobra import CobraConfig, CobraDecoder, CobraEncoder
from repro.baselines.lightsync import LightSyncConfig, LightSyncEncoder, LightSyncReceiver
from repro.core.decoder import _COLOR_TO_SYMBOL, assemble_frame
from repro.core.encoder import FrameCodecConfig, FrameEncoder

#: Scheme -> (config, encoder class, assembler factory, cells per wire byte).
SCHEMES = {
    "rainbar": (FrameCodecConfig(), FrameEncoder, lambda c: partial(assemble_frame, c), 4),
    "cobra": (CobraConfig(), CobraEncoder, lambda c: CobraDecoder(c).assemble, 4),
    "lightsync": (LightSyncConfig(), LightSyncEncoder, lambda c: LightSyncReceiver(c).assemble, 8),
}


class Scheme:
    def __init__(self, name: str):
        self.config, encoder_cls, make_assemble, self.cells_per_byte = SCHEMES[name]
        self.encoder = encoder_cls(self.config)
        self.assemble = make_assemble(self.config)
        cfg = self.config
        # Codeword of every wire byte: the interleaver maps wire position
        # j to position p of the de-interleaved stream, in codeword p // n.
        length = cfg.coded_bytes_per_frame
        self.codeword_of = np.array(
            [cfg.interleaver.map_erasures([j], length)[0] // cfg.rs_n for j in range(length)]
        )

    def frame(self, payload: bytes, sequence: int = 1):
        """The frame and the symbols its data cells carry."""
        frame = self.encoder.encode_frame(payload, sequence=sequence)
        cells = self.config.layout.data_cells
        return frame, _COLOR_TO_SYMBOL[frame.grid[cells[:, 0], cells[:, 1]]]

    def wire_bytes_per_codeword(self, count: int, rng: np.random.Generator) -> list[int]:
        """*count* random wire-byte positions in every codeword."""
        picked: list[int] = []
        for codeword in range(self.config.chunks_per_frame):
            members = np.flatnonzero(self.codeword_of == codeword)
            picked.extend(int(j) for j in rng.choice(members, size=count, replace=False))
        return picked

    def erase(self, symbols: np.ndarray, byte: int) -> None:
        start = byte * self.cells_per_byte
        symbols[start : start + self.cells_per_byte] = -1

    def corrupt(self, symbols: np.ndarray, byte: int) -> None:
        """Change the first cell of *byte* to another valid value."""
        index = byte * self.cells_per_byte
        if self.cells_per_byte == 8:  # LightSync: white (0) <-> blue (3)
            symbols[index] = 3 - symbols[index]
        else:
            symbols[index] = (symbols[index] + 1) % 4


@pytest.fixture(scope="module", params=sorted(SCHEMES))
def scheme(request):
    return Scheme(request.param)


def _payload(scheme: Scheme, salt: int) -> bytes:
    rng = np.random.default_rng(salt)
    size = scheme.config.payload_bytes_per_frame
    return bytes(rng.integers(0, 256, size, dtype=np.uint8))


def test_clean_round_trip(scheme):
    payload = _payload(scheme, 0)
    frame, symbols = scheme.frame(payload)
    result = scheme.assemble(frame.header, symbols)
    assert result.ok and result.payload == payload and result.erased_bytes == 0


def test_erasures_up_to_parity_budget(scheme):
    payload = _payload(scheme, 1)
    frame, symbols = scheme.frame(payload)
    budget = scheme.config.rs_n - scheme.config.rs_k
    erased = scheme.wire_bytes_per_codeword(budget, np.random.default_rng(1))
    for byte in erased:
        scheme.erase(symbols, byte)
    result = scheme.assemble(frame.header, symbols)
    assert result.ok and result.payload == payload
    assert result.erased_bytes == len(erased)


def test_errors_up_to_half_the_parity_budget(scheme):
    payload = _payload(scheme, 2)
    frame, symbols = scheme.frame(payload)
    budget = (scheme.config.rs_n - scheme.config.rs_k) // 2
    for byte in scheme.wire_bytes_per_codeword(budget, np.random.default_rng(2)):
        scheme.corrupt(symbols, byte)
    result = scheme.assemble(frame.header, symbols)
    assert result.ok and result.payload == payload


def test_corruption_beyond_capacity_never_passes_wrong_bytes(scheme):
    """Seeded sweep past the RS budget: exact bytes or a reported failure.

    Each trial hits n - k + 1 to 2(n - k) wire bytes of every codeword,
    alternately erasing and corrupting them.  The sweep must see RS
    failures (so the corruption really is beyond capacity) and no ``ok``
    frame with other bytes.  At the default RS(32, 24) each scheme sees
    11 RS failures in 12 trials; the twelfth miscorrects and fails the
    CRC-16.
    """
    budget = scheme.config.rs_n - scheme.config.rs_k
    payload = _payload(scheme, 3)
    frame, clean = scheme.frame(payload)
    rs_failures = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        symbols = clean.copy()
        hits = scheme.wire_bytes_per_codeword(budget + 1 + seed % budget, rng)
        for n, byte in enumerate(hits):
            (scheme.erase if n % 2 == 0 else scheme.corrupt)(symbols, byte)
        result = scheme.assemble(frame.header, symbols)
        if result.ok:
            assert result.payload == payload
        rs_failures += result.failure.startswith("RS decode failed")
    assert rs_failures > 0


def test_foreign_header_checksum_fails_the_crc(scheme):
    """A frame that RS-decodes cleanly under another payload's header."""
    payload = _payload(scheme, 4)
    frame, symbols = scheme.frame(payload)
    other, _ = scheme.frame(_payload(scheme, 5))
    assert other.header.payload_checksum != frame.header.payload_checksum
    result = scheme.assemble(other.header, symbols)
    assert not result.ok
    assert result.failure == "payload CRC mismatch"
    assert result.payload == payload


@pytest.mark.parametrize("keep", [0, 3, 0.5])
def test_truncated_symbols_fail_without_raising(scheme, keep):
    frame, symbols = scheme.frame(_payload(scheme, 6))
    kept = int(len(symbols) * keep) if isinstance(keep, float) else keep
    result = scheme.assemble(frame.header, symbols[:kept])
    assert not result.ok
    assert result.failure
    assert result.sequence == frame.header.sequence
