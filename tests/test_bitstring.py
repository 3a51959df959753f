"""BitString packing and varint codec."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magkit.bitstring import BLOCK, BitString, decode_uvarint, encode_uvarint
from magkit.errors import (
    PaddingError,
    RangeError,
    TrailingDataError,
    TruncatedError,
    VarintError,
)


def test_varint_known_values():
    assert encode_uvarint(0) == b"\x00"
    assert encode_uvarint(1) == b"\x01"
    assert encode_uvarint(127) == b"\x7f"
    assert encode_uvarint(128) == b"\x80\x01"
    assert encode_uvarint(300) == b"\xac\x02"
    assert encode_uvarint(2**64 - 1) == b"\xff" * 9 + b"\x01"


def test_varint_roundtrip():
    values = list(range(300)) + [2**k - 1 for k in range(7, 64, 7)] + [2**63, 2**64 - 1]
    for v in values:
        data = encode_uvarint(v)
        out, pos = decode_uvarint(data, 0)
        assert out == v and pos == len(data), v


def test_varint_minimal_length():
    for k in range(1, 10):
        assert len(encode_uvarint(2 ** (7 * k) - 1)) == k


def test_varint_failures():
    with pytest.raises(TruncatedError):
        decode_uvarint(b"", 0)
    with pytest.raises(TruncatedError):
        decode_uvarint(b"\x80", 0)
    with pytest.raises(VarintError):
        decode_uvarint(b"\x80\x00", 0)  # non-minimal zero
    with pytest.raises(VarintError):
        decode_uvarint(b"\xff" * 9 + b"\x02", 0)  # 65 bits
    with pytest.raises(VarintError):
        encode_uvarint(-1)


def test_bit_get_set():
    bs = BitString(12)
    assert len(bs.payload) == 2
    bs.set(0)
    bs.set(11)
    assert bs.payload == bytearray([0x80, 0x10])
    assert bs.get(0) and bs.get(11) and not bs.get(5)
    bs.set(0, False)
    assert not bs.get(0)
    with pytest.raises(RangeError):
        bs.get(12)
    with pytest.raises(RangeError):
        bs.set(-1)
    with pytest.raises(RangeError):
        BitString(-1)


def test_padding_enforced():
    BitString(12, bytes([0xFF, 0xF0]))
    with pytest.raises(PaddingError):
        BitString(12, bytes([0xFF, 0xF8]))
    with pytest.raises(TruncatedError):
        BitString(12, bytes([0xFF]))


def test_array_conversion_roundtrip():
    import numpy as np

    bits = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1, 0], dtype=np.uint8)
    bs = BitString.from_array(bits)
    assert bs.bit_length == 10
    assert bs.to_array().tolist() == bits.tolist()
    assert [bs.get(j) for j in range(10)] == [bool(b) for b in bits]


def test_count_and_eq():
    a = BitString(9)
    a.set(3)
    a.set(8)
    assert a.count() == 2
    b = BitString(9, bytes(a.payload))
    assert a == b
    b.set(0)
    assert a != b


# Lengths 0-17 cover every padding width around the first byte boundaries.
lengths = st.one_of(st.integers(0, 17), st.integers(18, 5000))


def random_bits(n: int, seed: int, p: float) -> np.ndarray:
    return (np.random.default_rng(seed).random(n) < p).astype(np.uint8)


def with_short_lengths(test):
    """The test with lengths 0, 1, 7, 8 and 9, at seed 0, as explicit examples."""
    for n in (0, 1, 7, 8, 9):
        test = example(n, 0)(test)
    return test


def some_indices(n: int, seed: int, size: int) -> np.ndarray:
    """`size` indices in [0, n), none if n is 0."""
    return np.random.default_rng(seed).integers(0, max(n, 1), size if n else 0)


@settings(max_examples=100, deadline=None)
@given(lengths, st.integers(0, 2**32))
@with_short_lengths
def test_int_conversion_against_slow_reference(n, seed):
    bs = BitString.from_array(random_bits(n, seed, 0.5))
    assert bs.to_int() == sum(bs.get(j) << j for j in range(n))


@settings(max_examples=100, deadline=None)
@given(lengths, st.integers(0, 2**32))
@with_short_lengths
@example(8 * BLOCK + 13, 3)  # a payload longer than BLOCK bytes
def test_count_and_take_against_per_byte_reference(n, seed):
    bs = BitString.from_array(random_bits(n, seed, 0.5))
    assert bs.count() == sum(b.bit_count() for b in bs.payload)
    indices = some_indices(n, seed, 50)
    assert bs.take(indices).tolist() == [int(bs.get(int(j))) for j in indices]
    with pytest.raises(RangeError):
        bs.take(np.array([n]))
    with pytest.raises(RangeError):
        bs.take(np.array([-1]))


@settings(max_examples=100, deadline=None)
@given(lengths, st.integers(0, 2**32))
@with_short_lengths
def test_set_many_against_per_bit_set(n, seed):
    bs = BitString.from_array(random_bits(n, seed, 0.05))
    expected = bs.copy()
    indices = np.tile(some_indices(n, seed, 30), 2)  # every index repeated
    for j in indices:
        expected.set(int(j))
    bs.set_many(indices)
    assert bs == expected
    bs.set_many(np.array([], dtype=np.int64))
    assert bs == expected
    with pytest.raises(RangeError):
        bs.set_many(np.array([0, n]))
    with pytest.raises(RangeError):
        bs.set_many(np.array([-1]))
    assert bs == expected


@settings(max_examples=200, deadline=None)
@given(lengths, st.integers(0, 2**32), st.sampled_from([0.0, 0.05, 0.5, 1.0]))
def test_ones_are_the_set_indices_in_bounded_ascending_blocks(n, seed, p):
    bs = BitString.from_array(random_bits(n, seed, p))
    blocks = list(bs.ones())
    assert all(b.dtype == np.int64 and 0 < b.size <= BLOCK for b in blocks)
    ones = np.concatenate(blocks) if blocks else np.zeros(0, np.int64)
    assert ones.tolist() == np.flatnonzero(bs.to_array()).tolist()
    assert (np.diff(ones) > 0).all()


def test_ones_of_a_full_string_longer_than_a_window():
    n = 8 * BLOCK + 13  # every window of BLOCK bytes holds 8 * BLOCK ones
    blocks = list(BitString.from_array(np.ones(n, np.uint8)).ones())
    assert [b.size for b in blocks] == [BLOCK] * 8 + [13]
    assert (np.concatenate(blocks) == np.arange(n)).all()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 6), max_size=6),
    st.integers(0, 23),
    st.integers(0, 2**32),
    st.randoms(use_true_random=False),
)
def test_chunked_put_packs_like_from_array(whole_bytes, tail, seed, rnd):
    sizes = [8 * k for k in whole_bytes] + [tail]  # only the last chunk is ragged
    bits = random_bits(sum(sizes), seed, 0.5)
    expected = BitString.from_array(bits)
    # put overwrites, whatever the string held, and in any order of chunks
    bs = BitString.from_array(random_bits(bits.size, seed + 1, 0.5))
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    chunks = list(zip(starts, sizes))
    rnd.shuffle(chunks)
    for start, size in chunks:
        bs.put(start, bits[start : start + size] == 1)
    assert bs == expected
    BitString(bs.bit_length, bs.payload)  # padding still zero


def test_put_range_checks():
    bs = BitString(20)
    for start, size in [(4, 8), (16, 5), (-8, 1), (24, 0)]:
        with pytest.raises(RangeError):
            bs.put(start, np.ones(size, bool))
    bs.put(16, np.ones(4, bool))
    assert bs.to_array().tolist() == [0] * 16 + [1] * 4


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.binary(max_size=5), st.integers(0, 2**32))
def test_read_frames_the_payload_exactly(n, header, seed):
    bs = BitString.from_array(random_bits(n, seed, 0.5))
    data = header + bytes(bs.payload)
    pos = len(header)
    assert BitString.read(data, pos, n) == bs
    with pytest.raises(TrailingDataError):
        BitString.read(data + b"\x00", pos, n)
    if bs.payload:
        with pytest.raises(TruncatedError):
            BitString.read(data[:-1], pos, n)
    if n % 8:
        padded = bytearray(data)
        padded[-1] |= 1
        with pytest.raises(PaddingError):
            BitString.read(bytes(padded), pos, n)
