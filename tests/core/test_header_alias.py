"""The header-alias surface: symbol substitutions that pass CRC-8.

Each 16-bit header group carries only a CRC-8 and the header has no FEC,
so enough symbol substitutions in the sequence group can turn one valid
header into another.  These tests enumerate the surface exhaustively
(sampling cannot find a ~1e-4 event) and pin the one constructed wrong
delivery it opens at the reassembly layer.
"""

from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest

from repro.core.decoder import FrameDecoder
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.core.header import FrameHeader, HeaderError
from repro.core.palette import bytes_to_symbols, symbols_to_bytes
from repro.core.sync import StreamReassembler

#: Symbols of the sequence group: seq_hi, seq_lo and their CRC-8, 2 bits each.
GROUP1_SYMBOLS = 12


def _seq1_header() -> FrameHeader:
    return FrameHeader(sequence=1, display_rate=10, app_type=0, payload_checksum=0x1234)


def _substituted(symbols: np.ndarray, positions, deltas) -> np.ndarray:
    out = symbols.copy()
    for position, delta in zip(positions, deltas):
        out[position] = (out[position] + delta) % 4
    return out


def _accepted(header: FrameHeader, k: int) -> list[tuple[tuple[int, ...], FrameHeader]]:
    """Every k-symbol substitution in group 1 that still unpacks."""
    symbols = bytes_to_symbols(header.pack())
    accepted = []
    for positions in combinations(range(GROUP1_SYMBOLS), k):
        for deltas in product((1, 2, 3), repeat=k):
            try:
                alias = FrameHeader.unpack(
                    symbols_to_bytes(_substituted(symbols, positions, deltas))
                )
            except HeaderError:
                continue
            accepted.append((positions, alias))
    return accepted


class TestGroup1Surface:
    @pytest.mark.parametrize("k", [1, 2])
    def test_no_one_or_two_symbol_substitution_passes(self, k):
        assert _accepted(_seq1_header(), k) == []

    def test_three_symbol_substitutions(self):
        accepted = _accepted(_seq1_header(), 3)
        assert len(list(combinations(range(GROUP1_SYMBOLS), 3))) * 27 == 5940
        assert len(accepted) == 26
        assert sum(alias.sequence & 3 == 1 for __, alias in accepted) == 17
        assert sum(alias.is_last for __, alias in accepted) == 2
        to_seq5 = [positions for positions, alias in accepted if alias.sequence == 5]
        assert to_seq5 == [(6, 9, 10)]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_aliased_header_does_not_deliver_another_frames_bytes():
    """Frame 1's rows filed under a seq-5 alias must not verify as frame 5.

    The payload-checksum group is untouched by the alias, so frame 1's
    symbols pass RS and CRC-16 under the wrong sequence number.  The fix
    of ROADMAP item 1 flips this test.
    """
    config = FrameCodecConfig()
    payloads = [bytes([i]) * config.payload_bytes_per_frame for i in range(6)]
    frames = FrameEncoder(config).encode_stream(b"".join(payloads))
    extraction = FrameDecoder(config).extract(frames[1].render())
    alias = next(
        alias
        for positions, alias in _accepted(extraction.header, 3)
        if positions == (6, 9, 10) and alias.sequence == 5
    )
    assert alias.payload_checksum == frames[1].header.payload_checksum

    reassembler = StreamReassembler(config)
    results = reassembler.add_capture(replace(extraction, header=alias))
    results += reassembler.flush()
    wrong = [r for r in results if r.sequence == 5 and r.ok and r.payload == payloads[1]]
    assert wrong == []
