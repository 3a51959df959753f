"""Packed bit strings and varint primitives.

A BitString is a length-carrying bit sequence packed MSB-first within each
byte; padding bits in the final byte are always zero. The canonical packing
makes byte equality equivalent to bit equality, which the file formats rely
on for deterministic round trips. This is the one module that knows that
layout: other modules read and write bits through BitString (ones, put and
read among them) and touch the payload bytes only to append them to a stream.

Varints are unsigned LEB128: 7 data bits per byte, little-endian groups,
high bit marks continuation. Encoding is always minimal and the decoder
rejects non-minimal forms, again so that value equality is byte equality.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import PaddingError, RangeError, TrailingDataError, TruncatedError, VarintError

# Indices per array that ones() yields, and payload bytes it unpacks at a
# time: bounds the memory of every pass over the 1 bits.
BLOCK = 1 << 15

# Bit-reversal table: maps each byte to the byte with reversed bit order.
# Lets to_int read MSB-first packed bytes as a little-endian integer with
# one bytes.translate plus int.from_bytes, both O(n) in C.
_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def encode_uvarint(value: int) -> bytes:
    if value < 0:
        raise VarintError("varint value must be non-negative")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Decode one minimal LEB128 varint at pos; return (value, next_pos)."""
    value = 0
    shift = 0
    start = pos
    while True:
        if pos >= len(data):
            raise TruncatedError("stream ends inside a varint")
        byte = data[pos]
        pos += 1
        if shift >= 63 and byte > 1:
            raise VarintError("varint exceeds 64 bits")
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if byte == 0 and pos - start > 1:
                raise VarintError("non-minimal varint encoding")
            return value, pos
        shift += 7


class BitString:
    """Fixed-length packed bit sequence, MSB-first per byte, zero padding."""

    __slots__ = ("bit_length", "payload")

    def __init__(self, bit_length: int, payload: bytes | bytearray | None = None):
        if bit_length < 0:
            raise RangeError("bit length must be non-negative")
        nbytes = (bit_length + 7) // 8
        if payload is None:
            payload = bytearray(nbytes)
        else:
            if len(payload) != nbytes:
                raise TruncatedError(
                    f"payload holds {len(payload)} bytes, expected {nbytes}"
                )
            payload = bytearray(payload)
            if bit_length % 8:
                pad_mask = (1 << (8 - bit_length % 8)) - 1
                if payload[-1] & pad_mask:
                    raise PaddingError("padding bits in final byte are not zero")
        self.bit_length = bit_length
        self.payload = payload

    def _check(self, index: int) -> None:
        if not 0 <= index < self.bit_length:
            raise RangeError(f"bit index {index} out of range [0, {self.bit_length})")

    def _checked(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and not (
            0 <= indices.min() and indices.max() < self.bit_length
        ):
            raise RangeError(f"bit indices out of range [0, {self.bit_length})")
        return indices

    def get(self, index: int) -> bool:
        self._check(index)
        return bool(self.payload[index >> 3] & (0x80 >> (index & 7)))

    def set(self, index: int, value: bool = True) -> None:
        self._check(index)
        mask = 0x80 >> (index & 7)
        if value:
            self.payload[index >> 3] |= mask
        else:
            self.payload[index >> 3] &= ~mask

    def count(self) -> int:  # BLOCK bytes at a time, so no M/8-byte int is built
        return sum(int.from_bytes(self.payload[lo : lo + BLOCK], "big").bit_count()
                   for lo in range(0, len(self.payload), BLOCK))

    def take(self, indices: np.ndarray) -> np.ndarray:
        """Bits at the given indices as a uint8 array."""
        indices = self._checked(indices)
        buf = np.frombuffer(self.payload, dtype=np.uint8)
        return (buf[indices >> 3] >> (7 - (indices & 7)).astype(np.uint8)) & 1

    def set_many(self, indices: np.ndarray) -> None:
        """Set the bits at the given indices to 1."""
        indices = self._checked(indices)
        buf = np.frombuffer(self.payload, dtype=np.uint8)
        np.bitwise_or.at(buf, indices >> 3, (0x80 >> (indices & 7)).astype(np.uint8))

    def to_int(self) -> int:
        """Whole string as an integer with bit j of the string at bit j."""
        return int.from_bytes(bytes(self.payload).translate(_REVERSED), "little")

    def to_array(self) -> np.ndarray:
        """Bits as a uint8 array of length bit_length."""
        buf = np.frombuffer(self.payload, dtype=np.uint8)
        return np.unpackbits(buf, bitorder="big")[: self.bit_length]

    def ones(self) -> Iterator[np.ndarray]:
        """Indices of the 1 bits in ascending order, as int64 arrays of at
        most BLOCK indices; unpacks BLOCK payload bytes at a time."""
        payload = np.frombuffer(self.payload, dtype=np.uint8)
        for lo in range(0, payload.size, BLOCK):
            window = payload[lo : lo + BLOCK]
            nonzero = np.flatnonzero(window)
            bits = np.flatnonzero(np.unpackbits(window[nonzero]))
            ones = (nonzero[bits >> 3] + lo) * 8 + (bits & 7)
            for start in range(0, ones.size, BLOCK):
                yield ones[start : start + BLOCK]

    def put(self, start: int, bits: np.ndarray) -> None:
        """Overwrite the bits from `start`, a multiple of 8, with a 0/1 array;
        the rest of the last byte written is cleared."""
        if start % 8 or not 0 <= start <= self.bit_length - bits.size:
            raise RangeError(f"cannot put {bits.size} bits at bit {start}")
        buf = np.frombuffer(self.payload, dtype=np.uint8)
        buf[start >> 3 : (start + bits.size + 7) >> 3] = np.packbits(bits)

    @classmethod
    def from_array(cls, bits: np.ndarray) -> "BitString":
        packed = np.packbits(bits.astype(np.uint8, copy=False), bitorder="big")
        return cls(int(bits.size), packed.tobytes())

    @classmethod
    def read(cls, data: bytes, pos: int, bit_length: int) -> "BitString":
        """The string of bit_length bits whose payload is exactly data[pos:]."""
        extra = len(data) - pos - (bit_length + 7) // 8
        if extra > 0:
            raise TrailingDataError(f"{extra} bytes past the payload")
        return cls(bit_length, data[pos:])

    def copy(self) -> "BitString":
        return BitString(self.bit_length, self.payload)

    def __len__(self) -> int:
        return self.bit_length

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self.bit_length == other.bit_length and self.payload == other.payload

    def __repr__(self) -> str:
        return f"BitString({self.bit_length}, {bytes(self.payload).hex()!r})"
