"""The bytes-backed bit codec accepts, rejects and returns what the frozen one did.

``validate_bits`` checks a tuple or list of ints with one ``bytes()``
call, ``bits_from_int`` formats through ``format``/``translate``, and
the CRC-16 functions validate once. Every comparison here runs one
input through the library and through ``mac_oracle`` (the code before
the rework): both must return equal values, or both must raise the
same exception type.

Elements that ``int()`` cannot convert (``"x"``, ``None``, NaN) are left
out on purpose: the library wraps that ``TypeError``/``ValueError`` in an
``EncodingError`` and the oracle does not, a difference that predates the
rework and that ``test_crc_bitops.TestValidationContract`` pins.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gen2.bitops import bits_from_int, bits_to_int, validate_bits
from repro.gen2.crc import append_crc16, check_crc16, crc16

from tests.gen2 import mac_oracle as oracle

#: One vector element: mostly bits, plus every other kind ``int()`` takes.
elements = st.one_of(
    st.integers(0, 1),
    st.integers(0, 1),
    st.integers(0, 1),
    st.sampled_from([2, -1, 255, 256, 2**70, -(2**70)]),
    st.booleans(),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.int64, st.integers(-2, 3)),
    st.builds(np.uint8, st.integers(0, 2)),
    st.floats(-3.0, 3.0, allow_nan=False),
    st.sampled_from(["0", "1", "2", "-1"]),
)


def _containers(items: st.SearchStrategy) -> st.SearchStrategy:
    """The same elements as a tuple, a list or a one-pass iterator."""
    return st.one_of(
        items.map(tuple),
        items,
        items.map(lambda xs: iter(list(xs))),
    )


mixed_vectors = _containers(st.lists(elements, max_size=140))
bit_lists = st.lists(st.integers(0, 1), max_size=140)
#: Valid bit vectors in every container the codec meets.
clean_vectors = st.one_of(
    _containers(bit_lists),
    bit_lists.map(lambda xs: np.array(xs, dtype=np.int64)),
    bit_lists.map(lambda xs: np.array(xs, dtype=bool)),
    bit_lists.map(lambda xs: "".join(map(str, xs))),
    bit_lists.map(bytes),
)
vectors = st.one_of(mixed_vectors, clean_vectors)


def outcome(fn, *args):
    """``fn(*args)``'s value, or the type of what it raised."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # the exception type is the result
        return "raised", type(exc)


def same(fn, reference, make_args):
    """``fn`` and ``reference`` agree on freshly built arguments."""
    got = outcome(fn, *make_args())
    want = outcome(reference, *make_args())
    assert got == want


def _rebuild(vector):
    """A factory of equal inputs (neither side mutates its input, but an
    iterator is single-pass)."""
    if isinstance(vector, (tuple, list, str, bytes, np.ndarray)):
        return lambda: vector
    snapshot = list(vector)
    return lambda: iter(snapshot)


@settings(max_examples=400, deadline=None)
@given(vectors)
def test_validate_and_bits_to_int_match_the_oracle(vector):
    fresh = _rebuild(vector)
    same(validate_bits, oracle.validate_bits, lambda: (fresh(),))
    same(bits_to_int, oracle.bits_to_int, lambda: (fresh(),))


@settings(max_examples=300, deadline=None)
@given(vectors)
def test_crc16_and_append_match_the_oracle(vector):
    fresh = _rebuild(vector)
    same(crc16, oracle.crc16, lambda: (fresh(),))
    same(append_crc16, oracle.append_crc16, lambda: (fresh(),))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 1), max_size=130),
    st.one_of(st.none(), st.integers(0, 200)),
    st.sampled_from([tuple, list, np.array]),
)
def test_check_crc16_matches_the_oracle(payload, flip, container):
    frame = list(oracle.append_crc16(payload))
    if flip is not None:
        frame[flip % len(frame)] ^= 1
    same(check_crc16, oracle.check_crc16, lambda: (container(frame),))


@settings(max_examples=300, deadline=None)
@given(vectors)
def test_check_crc16_matches_the_oracle_on_any_vector(vector):
    fresh = _rebuild(vector)
    same(check_crc16, oracle.check_crc16, lambda: (fresh(),))


widths = st.one_of(
    st.integers(0, 130),
    st.sampled_from([-1, -16]),
    st.builds(np.int64, st.integers(0, 40)),
    st.sampled_from([0.0, 4.0]),
)
values = st.one_of(
    st.integers(0, 2**130),
    st.integers(-5, 70),
    st.sampled_from([2**96 - 1, 2**96, 2**128 - 1]),
    st.builds(np.int64, st.integers(0, 2**40)),
    st.builds(np.uint8, st.integers(0, 255)),
    st.booleans(),
    st.builds(np.bool_, st.booleans()),
    st.sampled_from([0.0, 3.0, 2.5, -1.0]),
)


@settings(max_examples=500, deadline=None)
@given(values, widths)
def test_bits_from_int_matches_the_oracle(value, width):
    same(bits_from_int, oracle.bits_from_int, lambda: (value, width))


def test_width_zero_and_empty_frames():
    for fn, reference, args in (
        (bits_from_int, oracle.bits_from_int, (0, 0)),
        (bits_from_int, oracle.bits_from_int, (1, 0)),
        (bits_from_int, oracle.bits_from_int, (0.0, 0)),
        (validate_bits, oracle.validate_bits, ((),)),
        (bits_to_int, oracle.bits_to_int, ([],)),
        (crc16, oracle.crc16, ((),)),
        (append_crc16, oracle.append_crc16, ((),)),
        (check_crc16, oracle.check_crc16, ((),)),
        (check_crc16, oracle.check_crc16, ((1,) * 15,)),
        (check_crc16, oracle.check_crc16, (oracle.append_crc16(()),)),
    ):
        same(fn, reference, lambda args=args: args)


def test_results_are_plain_int_tuples():
    for got in (
        validate_bits([True, np.int64(1), 0]),
        bits_from_int(0xBEEF, 16),
        crc16((1, 0, 1)),
        append_crc16([1, 0]),
        check_crc16(oracle.append_crc16((1, 1, 0))),
    ):
        assert type(got) is tuple
        assert all(type(b) is int for b in got)
