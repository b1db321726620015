"""Composed-frame integrity: a decoded frame is exact bytes or a failure.

The paper's link layer (§III-A, §V) promises two outcomes only: the sent
bytes, or a reported failure.  This property starts from the wire symbols
the encoder path builds (message plus CRC-16, ``block_code.encode``,
``interleaver.scramble``, ``bytes_to_symbols``), corrupts them with wrong
symbols and -1 erasures, from none up to twice the frame's parity budget,
and checks that :func:`assemble_frame` never reports ``ok`` with other
bytes.  RS(10,8) corrects one error per codeword and often miscorrects,
so there the CRC-16 is what keeps a miscorrected frame from delivery.
Any counterexample is a correctness bug, not a threshold to tune.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.crc import crc16
from repro.core.decoder import assemble_frame
from repro.core.encoder import FrameCodecConfig
from repro.core.header import FrameHeader
from repro.core.palette import bytes_to_symbols

CODES = [(32, 24), (10, 8), (32, 26)]


@settings(max_examples=200, deadline=None)
@given(code=st.sampled_from(CODES), sequence=st.integers(0, 0x7FFF), data=st.data())
def test_ok_frame_carries_the_sent_bytes(code, sequence, data):
    n, k = code
    config = FrameCodecConfig(rs_n=n, rs_k=k)
    payload = data.draw(st.binary(max_size=config.payload_bytes_per_frame), label="payload")
    sent = payload.ljust(config.payload_bytes_per_frame, b"\x00")
    checksum = crc16(sent)
    coded = config.block_code.encode(sent + bytes([checksum >> 8, checksum & 0xFF]))
    symbols = bytes_to_symbols(config.interleaver.scramble(coded))

    # Each hit is (symbol index, shift): shift 0 erases the symbol (-1),
    # shifts 1-3 change it to another of the four data symbols.
    parity_budget = config.chunks_per_frame * (n - k)
    hits = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(symbols) - 1), st.integers(0, 3)),
            max_size=2 * parity_budget,
        ),
        label="hits",
    )
    for index, shift in hits:
        symbols[index] = -1 if shift == 0 else (symbols[index] + shift) % 4

    header = FrameHeader(
        sequence=sequence,
        display_rate=config.display_rate,
        app_type=config.app_type,
        payload_checksum=checksum,
    )
    result = assemble_frame(config, header, symbols)
    if not hits:
        assert result.ok
    if result.ok:
        assert result.payload == sent


def test_composed_frame_survives_its_parity_budget_in_erasures():
    """Non-vacuity: one erasure per parity byte in every codeword decodes."""
    config = FrameCodecConfig()
    sent = bytes(range(256)) + bytes(config.payload_bytes_per_frame - 256)
    checksum = crc16(sent)
    coded = config.block_code.encode(sent + bytes([checksum >> 8, checksum & 0xFF]))
    symbols = bytes_to_symbols(config.interleaver.scramble(coded))
    budget = config.chunks_per_frame * (config.rs_n - config.rs_k)
    # Consecutive wire bytes land in distinct codewords, so a contiguous
    # run of `budget` erased bytes costs each codeword exactly n - k.
    symbols[: 4 * budget] = -1
    header = FrameHeader(sequence=1, display_rate=10, app_type=0, payload_checksum=checksum)
    result = assemble_frame(config, header, symbols)
    assert result.ok and result.payload == sent
