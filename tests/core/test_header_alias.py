"""The header-alias surface: symbol substitutions that pass CRC-8.

Each 16-bit header group carries only a CRC-8 and the header has no FEC,
so enough symbol substitutions in the sequence group can turn one valid
header into another.  These tests enumerate the surface exhaustively
(sampling cannot find a ~1e-4 event) and pin the one constructed wrong
delivery it opens, at the reassembly layer and through a whole
:class:`~repro.link.session.TransferSession`.
"""

from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest

from repro.channel.link import LinkConfig
from repro.core.decoder import DecodeError, FrameDecoder
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.core.header import FrameHeader, HeaderError
from repro.core.palette import bytes_to_symbols, symbols_to_bytes
from repro.core.sync import StreamReassembler
from repro.link.session import TransferSession

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


def _seq5_alias(header: FrameHeader) -> FrameHeader:
    """The alias symbols 6, 9 and 10 turn a seq-1 header into."""
    return next(
        alias
        for positions, alias in _accepted(header, 3)
        if positions == (6, 9, 10) and alias.sequence == 5
    )


class _AliasingDecoder(FrameDecoder):
    """Reads one frame-1 capture as seq 5 and loses frame 5 in round 1.

    "Frame 5's captures" are all captures showing any row of it: its
    own, and frame 4's rolling-shutter mix whose tail rows are frame 5's.
    """

    def __init__(self, config: FrameCodecConfig):
        super().__init__(config)
        self.round = 0
        self.aliased = False

    def extract(self, image):
        extraction = super().extract(image)
        sequence = extraction.header.sequence
        shown = {sequence + offset for offset in extraction.row_assignment if offset >= 0}
        if 5 in shown and self.round == 1:
            raise DecodeError("frame 5 lost in round 1", stage="header")
        if sequence == 1 and not self.aliased:
            self.aliased = True
            return replace(extraction, header=_seq5_alias(extraction.header))
        return extraction


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_session_never_delivers_wrong_bytes_through_a_header_alias(monkeypatch):
    """A 7-frame transfer must return the payload or None, never other bytes.

    Frame 1's aliased capture fills slot 5, whose own captures are lost
    in round 1; only frame 1 is resent, so the session completes with
    frame 1's payload in slot 5.  The fix of ROADMAP item 1 flips this
    test.
    """
    config = FrameCodecConfig()
    payload = b"".join(bytes([i]) * config.payload_bytes_per_frame for i in range(7))
    session = TransferSession(config, link_config=LinkConfig())
    decoder = session.decoder = _AliasingDecoder(config)
    run_round = session._run_round

    def counted_round(*args):
        decoder.round += 1
        return run_round(*args)

    monkeypatch.setattr(session, "_run_round", counted_round)
    recovered, stats = session.transmit(payload)
    if stats.frames_total != 7 or not decoder.aliased:
        pytest.fail("the construction no longer reaches the alias")  # not an xfail
    assert recovered is None or recovered == payload
