"""Seeded uniform-random MAG generation.

The draw for edge position j is the j-th 64-bit word of the Philox4x64
counter-based generator keyed by the seed (numpy's Philox bit generator,
raw-word stream). Position j is present iff word_j < floor(num * 2^64 / den),
so generation is a pure function of the GenSpec, independent of evaluation
order, and exact for dyadic probabilities such as the default 1/2.

Frozen test vectors for the word stream live in the test suite and README;
they pin the algorithm, not just the library version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CompanionTuple, SimpleMag
from .errors import ArgumentError, ShapeError
from .snapshot import spatial_positions

SEED_BITS = 64
# Philox words drawn per call: the draw buffer stays at 8 MiB whatever M is.
WORD_CHUNK = 1 << 20


@dataclass(frozen=True)
class GenSpec:
    """Shape, edge probability num/den, 64-bit seed, optional spatial-only."""

    shape: CompanionTuple
    p_num: int
    p_den: int
    seed: int
    spatial_only: bool = False

    def __post_init__(self):
        if self.p_den <= 0:
            raise ArgumentError("probability denominator must be positive")
        if not 0 <= self.p_num <= self.p_den:
            raise ArgumentError(
                f"edge probability {self.p_num}/{self.p_den} outside [0, 1]"
            )
        if not 0 <= self.seed < 1 << SEED_BITS:
            raise ArgumentError("seed must be an unsigned 64-bit integer")
        if self.spatial_only and self.shape.order != 2:
            raise ShapeError("spatial-only generation needs a second-order MAG")


def presence_words(seed: int, count: int) -> np.ndarray:
    """First `count` raw 64-bit Philox words for the given key."""
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    return np.random.Philox(key=seed).random_raw(count)


def generate(spec: GenSpec) -> SimpleMag:
    m = spec.shape.possible_edges
    g = SimpleMag(spec.shape)
    if spec.p_num:
        payload = np.frombuffer(g.bits.payload, dtype=np.uint8)
        words = np.random.Philox(key=spec.seed)
        threshold = (spec.p_num << SEED_BITS) // spec.p_den
        # Consecutive draws continue one stream, so chunking keeps the bits;
        # WORD_CHUNK is a multiple of 8, so each chunk packs into whole bytes.
        for lo in range(0, m, WORD_CHUNK):
            hi = min(lo + WORD_CHUNK, m)
            if spec.p_num == spec.p_den:
                present = np.ones(hi - lo, dtype=bool)
            else:
                present = words.random_raw(hi - lo) < np.uint64(threshold)
            payload[lo // 8 : (hi + 7) // 8] = np.packbits(present)
    if spec.spatial_only:
        positions = spatial_positions(spec.shape)
        spatial = SimpleMag(spec.shape)
        spatial.bits.set_many(positions[g.bits.take(positions) == 1])
        g = spatial
    return g
