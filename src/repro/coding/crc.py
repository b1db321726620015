"""Cyclic redundancy checks.

The RainBar header protects every 16-bit field with an 8-bit CRC
(Fig. 5), and each frame payload carries a CRC-16 checksum used to decide
whether a decoded frame is accepted or NACKed for retransmission
(Section III-A).  Both are table-driven implementations; the tables
are tuples of Python ints, so each byte costs one plain lookup.
"""

from __future__ import annotations

__all__ = ["Crc8", "Crc16", "crc8", "crc16"]


def _build_table_8(poly: int) -> tuple[int, ...]:
    table: list[int] = []
    for byte in range(256):
        crc = byte
        for __ in range(8):
            crc = ((crc << 1) ^ poly) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        table.append(crc)
    return tuple(table)


def _build_table_16(poly: int) -> tuple[int, ...]:
    table: list[int] = []
    for byte in range(256):
        crc = byte << 8
        for __ in range(8):
            crc = ((crc << 1) ^ poly) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
        table.append(crc)
    return tuple(table)


class Crc8:
    """CRC-8 with a configurable polynomial (default 0x07, ATM HEC style)."""

    def __init__(self, poly: int = 0x07, init: int = 0x00):
        self.poly = poly
        self.init = init
        self._table = _build_table_8(poly)

    def compute(self, data: bytes | bytearray) -> int:
        table = self._table
        crc = self.init
        for byte in bytes(data):
            crc = table[(crc ^ byte) & 0xFF]
        return crc

    def verify(self, data: bytes | bytearray, expected: int) -> bool:
        return self.compute(data) == (expected & 0xFF)


class Crc16:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) by default."""

    def __init__(self, poly: int = 0x1021, init: int = 0xFFFF):
        self.poly = poly
        self.init = init
        self._table = _build_table_16(poly)

    def compute(self, data: bytes | bytearray) -> int:
        table = self._table
        crc = self.init
        for byte in bytes(data):
            crc = ((crc << 8) & 0xFFFF) ^ table[((crc >> 8) ^ byte) & 0xFF]
        return crc

    def verify(self, data: bytes | bytearray, expected: int) -> bool:
        return self.compute(data) == (expected & 0xFFFF)


_CRC8 = Crc8()
_CRC16 = Crc16()


def crc8(data: bytes | bytearray) -> int:
    """CRC-8 (poly 0x07) of *data* — the header field checksum."""
    return _CRC8.compute(data)


def crc16(data: bytes | bytearray) -> int:
    """CRC-16/CCITT-FALSE of *data* — the frame payload checksum."""
    return _CRC16.compute(data)
