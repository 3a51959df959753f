"""Seeded uniform-random MAG generation.

The draw for edge position j is the j-th 64-bit word of the Philox4x64
counter-based generator keyed by the seed (numpy's Philox bit generator,
raw-word stream). Position j is present iff word_j < floor(num * 2^64 / den),
so generation is a pure function of the GenSpec, independent of evaluation
order, and exact for dyadic probabilities such as the default 1/2.

Both modes write their draws in place through one function over rank runs,
`_fill`: full generation fills a reused window of WORD_CHUNK ranks per
piece of [0, M), spatial-only generation the snapshot blocks over the runs
of `snapshot.spatial_runs`, which the decoder places, so it equals the full
draw masked to the spatial positions. Each piece of a run sets its counter
in `Philox.state`, whose layout is numpy's, not a documented contract; the
test suite pins it. At p = 1 nothing is drawn.

Frozen test vectors for the word stream live in the test suite and README;
they pin the algorithm, not just the library version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitstring import BitString
from .core import CompanionTuple, SimpleMag
from .errors import ArgumentError, ShapeError
from .snapshot import SnapshotPayload, decode_snapshot, spatial_runs

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


def _fill(spec: GenSpec, starts, ends, out: np.ndarray) -> None:
    """Write the presence of ranks [start, end) of each run, in order, into
    consecutive slices of the bool array `out`: rank j is present iff word j
    is below the threshold. At p = 1 every rank is present and none is drawn."""
    if spec.p_num == spec.p_den:
        out[:] = True
        return
    threshold = np.uint64((spec.p_num << SEED_BITS) // spec.p_den)
    words = np.random.Philox(key=spec.seed)
    state = words.state
    state["buffer_pos"] = 4
    at = 0
    for start, end in zip(starts, ends):
        for lo in range(start, end, WORD_CHUNK):
            hi = min(lo + WORD_CHUNK, end)
            # word j is lane j % 4 of the Philox block at counter j // 4
            state["state"]["counter"][0] = lo // 4
            words.state = state
            drawn = words.random_raw(hi - lo + lo % 4)[lo % 4 :]
            np.less(drawn, threshold, out=out[at : at + hi - lo])
            at += hi - lo


def generate(spec: GenSpec) -> SimpleMag:
    if not spec.p_num:
        return SimpleMag(spec.shape)
    if spec.spatial_only:
        starts, lengths = spatial_runs(spec.shape)
        present = np.empty(int(lengths.sum()), dtype=bool)
        _fill(spec, map(int, starts), map(int, starts + lengths), present)
        blocks = BitString.from_array(present)
        del present  # decode runs without the mask
        return decode_snapshot(SnapshotPayload(*spec.shape.sizes, False, blocks))
    g = SimpleMag(spec.shape)
    m = spec.shape.possible_edges
    window = np.empty(min(m, WORD_CHUNK), dtype=bool)
    # WORD_CHUNK is a multiple of 8, so each window starts on a byte
    for lo in range(0, m, WORD_CHUNK):
        piece = window[: min(m - lo, WORD_CHUNK)]
        _fill(spec, [lo], [lo + piece.size], piece)
        g.bits.put(lo, piece)
    return g
