"""Seeded uniform-random MAG generation.

The draw for edge position j is the j-th 64-bit word of the Philox4x64
counter-based generator keyed by the seed (numpy's Philox bit generator,
raw-word stream). Position j is present iff word_j < floor(num * 2^64 / den),
so generation is a pure function of the GenSpec, independent of evaluation
order, and exact for dyadic probabilities such as the default 1/2.

Spatial-only generation draws only the words of the spatial positions, and
word j is still the j-th word of the keyed stream, so its output equals the
full draw masked to those positions. It jumps between spatial runs by
setting the counter in `Philox.state`, whose layout is numpy's, not a
documented contract; the test suite pins it.

Frozen test vectors for the word stream live in the test suite and README;
they pin the algorithm, not just the library version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CompanionTuple, SimpleMag
from .errors import ArgumentError, ShapeError
from .snapshot import spatial_edge_count, spatial_positions

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


def _spatial_draws(spec: GenSpec, threshold: int) -> np.ndarray:
    """word_j < threshold for each spatial position j, in spatial_positions
    order, drawing only the words of those positions.

    Row a of the vertex order (instant t = a // nV) holds one spatial run:
    (t+1)*nV - a - 1 ranks from r = a*N - a(a+1)/2. Word j of the stream is
    lane j % 4 of the Philox block at counter j // 4, so each run sets the
    counter to r // 4 with an empty buffer and draws from there.
    """
    n_vertices = spec.shape.sizes[0]
    n = spec.shape.vertex_count
    present = np.empty(spatial_edge_count(spec.shape), dtype=bool)
    threshold = np.uint64(threshold)
    words = np.random.Philox(key=spec.seed)
    state = words.state
    state["buffer_pos"] = 4
    at = 0
    for a in range(n):
        start = a * n - a * (a + 1) // 2
        end = start + (a // n_vertices + 1) * n_vertices - a - 1
        if start == end:
            continue
        state["state"]["counter"][0] = start // 4
        words.state = state
        # a run past WORD_CHUNK words is drawn in pieces of one stream
        for lo in range(start - start % 4, end, WORD_CHUNK):
            drawn = words.random_raw(min(lo + WORD_CHUNK, end) - lo)[max(start - lo, 0) :]
            np.less(drawn, threshold, out=present[at : at + drawn.size])
            at += drawn.size
    return present


def generate(spec: GenSpec) -> SimpleMag:
    m = spec.shape.possible_edges
    g = SimpleMag(spec.shape)
    if not spec.p_num:
        return g
    threshold = (spec.p_num << SEED_BITS) // spec.p_den
    if spec.spatial_only:
        positions = spatial_positions(spec.shape)
        if spec.p_num < spec.p_den:
            positions = positions[_spatial_draws(spec, threshold)]
        g.bits.set_many(positions)
        return g
    words = np.random.Philox(key=spec.seed)
    # Consecutive draws continue one stream, so chunking keeps the bits;
    # WORD_CHUNK is a multiple of 8, so each chunk starts on a byte.
    for lo in range(0, m, WORD_CHUNK):
        hi = min(lo + WORD_CHUNK, m)
        if spec.p_num == spec.p_den:
            present = np.ones(hi - lo, dtype=bool)
        else:
            present = words.random_raw(hi - lo) < np.uint64(threshold)
        g.bits.put(lo, present)
    return g
