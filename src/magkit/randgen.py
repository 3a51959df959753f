"""Seeded uniform-random MAG generation.

The draw for edge position j is the j-th 64-bit word of the Philox4x64
counter-based generator keyed by the seed (numpy's Philox bit generator,
raw-word stream). Position j is present iff word_j < floor(num * 2^64 / den),
so generation is a pure function of the GenSpec, independent of evaluation
order, and exact for dyadic probabilities such as the default 1/2.

Both modes draw through one loop over rank runs: full generation is the
single run [0, M), and spatial-only generation draws only the runs of
`snapshot.spatial_runs`, so it equals the full draw masked to the spatial
positions. The loop jumps to each run by setting the counter in
`Philox.state`, whose layout is numpy's, not a documented contract; the
test suite pins it.

Frozen test vectors for the word stream live in the test suite and README;
they pin the algorithm, not just the library version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CompanionTuple, SimpleMag
from .errors import ArgumentError, ShapeError
from .snapshot import spatial_positions, spatial_runs

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
    return np.random.Philox(key=seed).random_raw(count)


def _draws(spec: GenSpec, starts, ends):
    """(rank, presence) pieces of at most WORD_CHUNK ranks of each run [start,
    end), in order: rank j is present iff word j is below the threshold (None
    at p = 1: none drawn). Pieces are views of one buffer, valid until the next."""
    threshold = (None if spec.p_num == spec.p_den
                 else np.uint64((spec.p_num << SEED_BITS) // spec.p_den))
    present = np.ones(WORD_CHUNK, dtype=bool)  # never written at p = 1
    words = np.random.Philox(key=spec.seed)
    state = words.state
    state["buffer_pos"] = 4
    for start, end in zip(starts, ends):
        if start == end:
            continue
        # word j is lane j % 4 of the Philox block at counter j // 4
        state["state"]["counter"][0] = start // 4
        words.state = state
        # a run past WORD_CHUNK words is drawn in pieces of one stream
        for lo in range(start - start % 4, end, WORD_CHUNK):
            hi = min(lo + WORD_CHUNK, end)
            skip = max(start - lo, 0)
            piece = present[: hi - lo - skip]
            if threshold is not None:
                np.less(words.random_raw(hi - lo)[skip:], threshold, out=piece)
            yield lo + skip, piece


def _spatial_presence(spec: GenSpec) -> np.ndarray:
    """Presence of each spatial position, in spatial_positions order; apart
    from generate, so this S-byte mask is freed before set_many allocates."""
    starts, lengths = spatial_runs(spec.shape)
    presence = np.empty(int(lengths.sum()), dtype=bool)
    at = 0
    for _, present in _draws(spec, map(int, starts), map(int, starts + lengths)):
        presence[at : at + present.size] = present
        at += present.size
    return presence


def generate(spec: GenSpec) -> SimpleMag:
    g = SimpleMag(spec.shape)
    if not spec.p_num:
        return g
    if spec.spatial_only:
        g.bits.set_many(spatial_positions(spec.shape)[_spatial_presence(spec)])
        return g
    # WORD_CHUNK is a multiple of 8, so each piece starts on a byte
    for lo, present in _draws(spec, [0], [spec.shape.possible_edges]):
        g.bits.put(lo, present)
    return g
