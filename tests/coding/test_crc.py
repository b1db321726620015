"""CRC-8 / CRC-16 vectors and error-detection behaviour."""

from hypothesis import given
from hypothesis import strategies as st

from repro.coding.crc import Crc8, Crc16, crc8, crc16


class TestKnownVectors:
    def test_crc8_check_string(self):
        # CRC-8 (poly 0x07, init 0x00) of "123456789" is 0xF4.
        assert crc8(b"123456789") == 0xF4

    def test_crc16_ccitt_false_check_string(self):
        # CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert crc16(b"123456789") == 0x29B1

    def test_empty_input(self):
        assert crc8(b"") == 0x00
        assert crc16(b"") == 0xFFFF


class TestErrorDetection:
    @given(st.binary(min_size=1, max_size=64), st.integers(0, 7))
    def test_crc8_detects_single_bit_flip(self, data, bit):
        flipped = bytearray(data)
        flipped[0] ^= 1 << bit
        assert crc8(bytes(flipped)) != crc8(data)

    @given(st.binary(min_size=2, max_size=64), st.integers(0, 15))
    def test_crc16_detects_single_bit_flip(self, data, bit):
        flipped = bytearray(data)
        flipped[bit // 8 % len(data)] ^= 1 << (bit % 8)
        assert crc16(bytes(flipped)) != crc16(data)

    @given(st.binary(max_size=64))
    def test_verify_roundtrip(self, data):
        assert Crc8().verify(data, crc8(data))
        assert Crc16().verify(data, crc16(data))

    def test_verify_rejects_wrong_checksum(self):
        assert not Crc8().verify(b"abc", crc8(b"abc") ^ 1)
        assert not Crc16().verify(b"abc", crc16(b"abc") ^ 1)

    def test_verify_masks_to_width(self):
        assert Crc8().verify(b"abc", crc8(b"abc") | 0x100)
        assert Crc16().verify(b"abc", crc16(b"abc") | 0x10000)


class TestIncrementalConsistency:
    @given(
        st.binary(min_size=2, max_size=64),
        st.integers(1, 16),
        st.integers(0, 2**14 - 1),
        st.integers(0, 2**16),
    )
    def test_crc16_detects_every_burst_up_to_16_bits(self, data, length, middle, offset):
        # A degree-16 generator with a nonzero constant term leaves no
        # burst of at most 16 bits undetected in a same-length message.
        burst = 1 | (1 << (length - 1)) | ((middle << 1) & ((1 << (length - 1)) - 1))
        shift = offset % (8 * len(data) - length + 1)
        value = int.from_bytes(data, "big") ^ (burst << shift)
        assert crc16(value.to_bytes(len(data), "big")) != crc16(data)

    def test_appending_need_not_change_crc(self):
        # Appending is not covered by any CRC guarantee: this non-empty
        # suffix (whose own CRC differs from the empty string's) leaves
        # the CRC of the prefix unchanged.
        a = b'e"\x80\xee\xbcU{\xc9@\x87'
        b = b"u6q\n\x9e\xea%\xd1a2"
        assert crc16(a + b) == crc16(a) == 0x10AA
        assert crc16(b) == 0x92D3 != crc16(b"")

    def test_custom_polynomial(self):
        other = Crc8(poly=0x31)  # CRC-8/MAXIM basis polynomial
        assert other.compute(b"123456789") != crc8(b"123456789")
