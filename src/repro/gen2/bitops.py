"""Bit-vector helpers shared by the Gen2 codecs.

Bits are represented as tuples of ints (0/1), most-significant bit first,
matching the over-the-air ordering of the Gen2 specification.

A tuple or list of ints is checked through ``bytes(bits)``, one C pass,
and every other input through ``int`` element by element; both paths
accept and reject exactly the same vectors (DESIGN.md §21).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from repro.errors import EncodingError

Bits = Tuple[int, ...]

_BINARY = frozenset((0, 1))
#: Maps the bytes 0x00/0x01 of ``bytes(bits)`` to the digits "0"/"1".
_ASCII_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
#: The inverse: the digits of ``format(value, "b")`` to bit bytes.
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")
_BIT_BYTES = b"\x00\x01"


def validate_bits(bits: Iterable[int]) -> Bits:
    """Return ``bits`` as a tuple, checking every element is 0 or 1."""
    if type(bits) is tuple or type(bits) is list:
        # Elements that are not integers (floats, strings, numpy bools)
        # make ``bytes`` raise; those vectors take the general path.
        try:
            raw = bytes(bits)
        except (TypeError, ValueError):
            pass
        else:
            if raw.translate(None, _BIT_BYTES):
                raise EncodingError(
                    f"bit vector contains non-binary values: {tuple(raw[:16])}..."
                )
            return tuple(raw)
    try:
        out = tuple(map(int, bits))
    except (TypeError, ValueError) as exc:
        raise EncodingError(f"bit vector contains non-integer values: {exc}") from exc
    if not _BINARY.issuperset(out):
        raise EncodingError(f"bit vector contains non-binary values: {out[:16]}...")
    return out


def bits_from_int(value: int, width: int) -> Bits:
    """Big-endian bit expansion of ``value`` into exactly ``width`` bits."""
    if width < 0:
        raise EncodingError(f"width must be >= 0, got {width}")
    if value < 0 or value >= (1 << width):
        raise EncodingError(f"value {value} does not fit in {width} bits")
    if not width:
        return ()
    # ``value >> 0`` takes exactly the values a shift loop takes: ints,
    # numpy ints and numpy bools (which ``operator.index`` refuses) pass,
    # floats raise TypeError.
    return tuple(format(value >> 0, f"0{width}b").encode().translate(_DIGIT_BITS))


def unchecked_int(bits: Bits) -> int:
    """:func:`bits_to_int` of bits that :func:`validate_bits` returned."""
    if not bits:
        return 0
    return int(bytes(bits).translate(_ASCII_DIGITS), 2)


def bits_to_int(bits: Sequence[int]) -> int:
    """Big-endian interpretation of a bit vector as an unsigned integer."""
    return unchecked_int(validate_bits(bits))


def bits_to_str(bits: Sequence[int]) -> str:
    """Render bits as a '0101...' string (debugging aid)."""
    return "".join(str(b) for b in validate_bits(bits))


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of differing positions between two equal-length bit vectors."""
    a, b = validate_bits(a), validate_bits(b)
    if len(a) != len(b):
        raise EncodingError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))
