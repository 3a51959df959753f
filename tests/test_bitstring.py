"""BitString packing and varint codec."""

import pytest

from magkit.bitstring import BitString, decode_uvarint, encode_uvarint
from magkit.errors import PaddingError, RangeError, TruncatedError, VarintError


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


def test_padding_enforced():
    BitString(12, bytes([0xFF, 0xF0]))
    with pytest.raises(PaddingError):
        BitString(12, bytes([0xFF, 0xF8]))
    with pytest.raises(TruncatedError):
        BitString(12, bytes([0xFF]))


def test_int_conversion_against_slow_reference():
    import random

    rng = random.Random(4)
    for bit_length in [0, 1, 7, 8, 9, 63, 64, 65, 130]:
        bs = BitString(bit_length)
        for j in range(bit_length):
            if rng.random() < 0.5:
                bs.set(j)
        slow = sum(bs.get(j) << j for j in range(bit_length))
        assert bs.to_int() == slow
        assert BitString.from_int(bit_length, slow) == bs


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


def test_count_and_take_against_per_byte_reference():
    import random

    import numpy as np

    rng = random.Random(11)
    for bit_length in [0, 1, 7, 8, 9, rng.randrange(100, 5000)]:
        bs = BitString(bit_length)
        for j in range(bit_length):
            if rng.random() < 0.5:
                bs.set(j)
        assert bs.count() == sum(b.bit_count() for b in bs.payload)
        indices = np.array([rng.randrange(bit_length) for _ in range(50)] if bit_length else [])
        assert bs.take(indices).tolist() == [int(bs.get(int(j))) for j in indices]
        with pytest.raises(RangeError):
            bs.take(np.array([bit_length]))
        with pytest.raises(RangeError):
            bs.take(np.array([-1]))


def test_set_many_against_per_bit_set():
    import random

    import numpy as np

    rng = random.Random(12)
    for bit_length in [1, 7, 8, 9, rng.randrange(100, 5000)]:
        bs = BitString(bit_length)
        bs.set(rng.randrange(bit_length))
        expected = bs.copy()
        indices = [rng.randrange(bit_length) for _ in range(60)]  # with repeats
        for j in indices:
            expected.set(j)
        bs.set_many(np.array(indices))
        assert bs == expected
        bs.set_many(np.array([], dtype=np.int64))
        assert bs == expected
        with pytest.raises(RangeError):
            bs.set_many(np.array([0, bit_length]))
        with pytest.raises(RangeError):
            bs.set_many(np.array([-1]))
        assert bs == expected
