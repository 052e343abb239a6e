"""Gen2 CRC-5 and CRC-16 implementations.

Per the EPCglobal Gen2 specification (Annex F):

* **CRC-5** protects the Query command. Polynomial x^5 + x^3 + 1
  (0b101001), preset 0b01001. The register is transmitted as-is.
* **CRC-16** protects longer reader commands and tag {PC, EPC} replies.
  It is the CCITT CRC: polynomial 0x1021, preset 0xFFFF, and the ones-
  complement of the register is appended. A correct frame leaves the
  receiver's register at the residue 0x1D0F. Whole bytes run through
  :func:`binascii.crc_hqx`, the same polynomial and bit order; a frame
  whose length is not a multiple of 8 feeds its leading ``len % 8``
  bits through the bit-serial loop first.
"""

from __future__ import annotations

import binascii
from typing import Sequence

from repro.errors import CRCError
from repro.gen2.bitops import Bits, bits_from_int, unchecked_int, validate_bits

CRC5_POLY = 0b01001  # x^5 + x^3 + 1, with the x^5 term implicit
CRC5_PRESET = 0b01001
CRC16_POLY = 0x1021  # CCITT
CRC16_PRESET = 0xFFFF
CRC16_RESIDUE = 0x1D0F


def crc5(bits: Sequence[int]) -> Bits:
    """CRC-5 of a bit sequence, as 5 bits MSB-first."""
    register = CRC5_PRESET
    for bit in validate_bits(bits):
        msb = (register >> 4) & 1
        register = ((register << 1) & 0x1F) | 0
        if msb ^ bit:
            register ^= CRC5_POLY
    return bits_from_int(register, 5)


def _crc16_shift(register: int, bits: Sequence[int]) -> int:
    """Clock ``bits`` through the CRC-16 register one at a time."""
    for bit in bits:
        msb = (register >> 15) & 1
        register = (register << 1) & 0xFFFF
        if msb ^ bit:
            register ^= CRC16_POLY
    return register


def _crc16_register(checked: Bits) -> int:
    """The CRC-16 register after clocking already-validated bits."""
    head = len(checked) % 8
    register = _crc16_shift(CRC16_PRESET, checked[:head])
    body = unchecked_int(checked[head:]).to_bytes(len(checked) // 8, "big")
    # ``crc_hqx`` clocks whole bytes MSB-first through this same
    # polynomial (the CRC-CCITT of binhex), from any starting register.
    return binascii.crc_hqx(body, register)


def crc16(bits: Sequence[int]) -> Bits:
    """CRC-16 of a bit sequence, ones-complemented, as 16 bits MSB-first."""
    return bits_from_int(_crc16_register(validate_bits(bits)) ^ 0xFFFF, 16)


def append_crc16(bits: Sequence[int]) -> Bits:
    """Return ``bits`` with its CRC-16 appended (how tags build replies)."""
    payload = validate_bits(bits)
    return payload + bits_from_int(_crc16_register(payload) ^ 0xFFFF, 16)


def check_crc16(bits_with_crc: Sequence[int]) -> Bits:
    """Validate a CRC-16-protected frame and return the payload bits.

    A frame passes exactly when clocking all of it, CRC included, leaves
    the register at :data:`CRC16_RESIDUE`: the 16 CRC bits map the
    payload's register one-to-one, and only its complement lands there.

    Raises
    ------
    CRCError
        If the frame is shorter than a CRC or the check fails.
    """
    frame = validate_bits(bits_with_crc)
    if len(frame) < 16:
        raise CRCError(f"frame of {len(frame)} bits is shorter than a CRC-16")
    if _crc16_register(frame) != CRC16_RESIDUE:
        raise CRCError("CRC-16 check failed")
    return frame[:-16]


def check_crc5(bits_with_crc: Sequence[int]) -> Bits:
    """Validate a CRC-5-protected frame and return the payload bits."""
    frame = validate_bits(bits_with_crc)
    if len(frame) < 5:
        raise CRCError(f"frame of {len(frame)} bits is shorter than a CRC-5")
    payload, received = frame[:-5], frame[-5:]
    if crc5(payload) != received:
        raise CRCError("CRC-5 check failed")
    return payload
