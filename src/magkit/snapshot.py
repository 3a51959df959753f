"""Snapshot codec for second-order MAGs read as (vertices, times/layers).

A spatial edge joins two composite vertices that share the same second-aspect
coordinate. A MAG whose present edges are all spatial can be losslessly
rebuilt from just the spatial presence bits, one block of (nV^2 - nV)/2 bits
per time instant (or layer), plus a header carrying (nV, nT). Only the
encoder gathers those bits out of the packed characteristic string, and
only the decoder places them, with its flag the never-stored sequential
couplings {(u, t_i), (u, t_i+1)} too, into an empty one. Both hold
O(M/8 + S + N) bytes (M possible edges, S spatial positions, N vertices),
never one byte per possible edge. Every order-2 rule is a set of allowed
ranks from one run builder, and every verdict is one stray count of the
present edges at none of them; the encoder and contraction keep the bits
it gathers as their blocks, and only raising paths read rank blocks, to
name the lowest stray; stripping takes the encoder's gather and ignores its
strays. randgen draws the runs of `spatial_runs`, which the decoder places;
expansion scatters the encoder's blocks to the interval ranks.

Also here: the interval-contraction reduction that turns a TVG whose edges
all span mapped time intervals (t_i, f(t_i)) into a plain spatial TVG, and
every order-2 verdict: snapshot-likeness (a zero stray count), and the
sequential and multiplex coupling checks, which share one same-node gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitstring import BitString, decode_uvarint, encode_uvarint
from .core import CompanionTuple, SimpleMag, edge_from_rank, ranks_from_pairs
from .errors import (
    BadMagicError,
    FormatError,
    NotIntervalRestrictedError,
    NotSnapshotError,
    ShapeError,
    TruncatedError,
)

MSC_MAGIC = b"MSC1"


def _require_order2(shape: CompanionTuple) -> tuple[int, int]:
    if shape.order != 2:
        raise ShapeError(f"expected a second-order MAG, got order {shape.order}")
    return shape.sizes


def is_spatial(u: Sequence[int], v: Sequence[int]) -> bool:
    """True iff both endpoints share their second-aspect coordinate."""
    if len(u) != 2 or len(v) != 2:
        raise ShapeError("spatial test needs order-2 composite vertices")
    return u[1] == v[1]


def _spatial_count(n_vertices: int, n_times: int) -> int:
    return n_times * (n_vertices * n_vertices - n_vertices) // 2


def spatial_edge_count(shape: CompanionTuple) -> int:
    """nT * (nV^2 - nV) / 2 possible spatial edges."""
    return _spatial_count(*_require_order2(shape))


def _block_runs(shape: CompanionTuple, firsts, lasts) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the rank runs of {(u, f), (v, l)}, u < v, one block
    per instant pair (f, l): with time-major vertex indexing each row (u, f) of
    a block is one run of nV - 1 - u ranks, so each block's last run is empty."""
    n_vertices, _ = _require_order2(shape)
    node = np.arange(n_vertices, dtype=np.int64)
    starts = ranks_from_pairs(
        shape.vertex_count,
        (node + np.asarray(firsts, dtype=np.int64)[:, None] * n_vertices).ravel(),
        (node + 1 + np.asarray(lasts, dtype=np.int64)[:, None] * n_vertices).ravel(),
    )
    return starts, np.tile((n_vertices - 1) - node, len(firsts))


def _block_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranks of the runs (starts, lengths), run by run."""
    run_bases = np.repeat(starts - np.concatenate(([0], np.cumsum(lengths)[:-1])), lengths)
    return run_bases + np.arange(run_bases.size, dtype=np.int64)


def spatial_runs(shape: CompanionTuple) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the spatial rank runs, one per vertex row."""
    instants = np.arange(_require_order2(shape)[1])
    return _block_runs(shape, instants, instants)


def spatial_positions(shape: CompanionTuple) -> np.ndarray:
    """Global ranks of all spatial pairs, in payload block order: blocks
    ordered by time instant, pairs within a block lexicographic."""
    return _block_positions(*spatial_runs(shape))


def coupling_positions(shape: CompanionTuple) -> np.ndarray:
    """Global ranks of all sequential couplings {(u, t_i), (u, t_i+1)}."""
    n_vertices, n_times = _require_order2(shape)
    a = np.arange(n_vertices * (n_times - 1), dtype=np.int64)
    return ranks_from_pairs(shape.vertex_count, a, a + n_vertices)


def _same_node_bits(g: SimpleMag):
    """For each instant t_i but the last, the (nV, nT - 1 - i) present bits
    of {(u, t_i), (u, t_j)}, j > i: row u, column j - i - 1."""
    n_vertices, n_times = _require_order2(g.shape)
    node = np.arange(n_vertices, dtype=np.int64)[:, None]
    for i in range(n_times - 1):
        later = np.arange(i + 1, n_times, dtype=np.int64)
        yield g.bits.take(ranks_from_pairs(
            g.shape.vertex_count, node + i * n_vertices, node + later * n_vertices
        ))


@dataclass
class SnapshotPayload:
    """Header (nV, nT, couplings flag) plus per-instant intra-block bits."""

    n_vertices: int
    n_times: int
    couplings: bool
    blocks: BitString

    def __post_init__(self):
        if self.n_vertices < 1 or self.n_times < 1:
            raise ShapeError("payload dimensions must be positive")
        expected = _spatial_count(self.n_vertices, self.n_times)
        if self.blocks.bit_length != expected:
            raise TruncatedError(
                f"blocks hold {self.blocks.bit_length} bits, expected {expected}"
            )

    def shape(self) -> CompanionTuple:
        return CompanionTuple((self.n_vertices, self.n_times))


def _outside(g: SimpleMag, *allowed: np.ndarray) -> tuple[list[np.ndarray], int]:
    """The bits of g at each allowed rank array (disjoint arrays), and how
    many present edges lie at none of them: the one stray count."""
    bits = [g.bits.take(ranks) for ranks in allowed]
    return bits, g.edge_count() - sum(int(np.count_nonzero(b)) for b in bits)


def _first_stray(g: SimpleMag, allowed: list[np.ndarray], bits: list[np.ndarray]) -> int:
    """Lowest stray rank, from the allowed ranks (ascending) and the bits
    _outside gathered there. It reads rank blocks, so only raising paths call it."""
    # present allowed ranks, with M as a sentinel past every rank
    inside = np.sort(np.concatenate(
        [ranks[b == 1] for ranks, b in zip(allowed, bits)] + [[g.shape.possible_edges]]
    ))
    for ranks in g.rank_blocks():
        outside = inside[np.searchsorted(inside, ranks)] != ranks
        if outside.any():
            return int(ranks[outside.argmax()])


def _snapshot_ranks(shape: CompanionTuple, implied_couplings: bool) -> list[np.ndarray]:
    """Where a snapshot-like MAG may hold edges: the spatial ranks, then with
    implied_couplings the sequential-coupling ranks."""
    couplings = [coupling_positions(shape)] if implied_couplings else []
    return [spatial_positions(shape), *couplings]


def is_snapshot_like(g: SimpleMag, implied_couplings: bool = False) -> bool:
    """True iff every present edge is spatial (or a sequential coupling
    when implied_couplings), i.e. the snapshot encoder would accept g."""
    return _outside(g, *_snapshot_ranks(g.shape, implied_couplings))[1] == 0


def encode_snapshot(
    g: SimpleMag,
    strip_non_spatial: bool = False,
    implied_couplings: bool = False,
) -> SnapshotPayload:
    """Gather the spatial bits of g into a SnapshotPayload.

    Every present edge must be spatial (or a sequential coupling when
    implied_couplings), else NotSnapshotError names the lowest stray. With
    strip_non_spatial the gather is the same and its strays are ignored, so
    non-spatial edges are silently dropped.
    """
    n_vertices, n_times = _require_order2(g.shape)
    allowed = _snapshot_ranks(g.shape, implied_couplings)
    bits, strays = _outside(g, *allowed)
    if strays and not strip_non_spatial:
        u, v = edge_from_rank(g.shape, _first_stray(g, allowed, bits))
        kind = "spatial or sequential-coupling" if implied_couplings else "spatial"
        raise NotSnapshotError(f"edge {u} -- {v} is not {kind}", edge=(u, v))
    blocks = BitString.from_array(bits[0])  # the spatial bits the stray count gathered
    return SnapshotPayload(n_vertices, n_times, implied_couplings, blocks)


def decode_snapshot(payload: SnapshotPayload) -> SimpleMag:
    """Rebuild the full characteristic string from a SnapshotPayload.

    Spatial positions come from the blocks, every other position is zero,
    and when the couplings flag is set all sequential couplings are added.
    """
    shape = payload.shape()
    present = spatial_positions(shape)[payload.blocks.to_array() == 1]
    g = SimpleMag(shape)
    g.bits.set_many(present)
    if payload.couplings:
        g.bits.set_many(coupling_positions(shape))
    return g


def write_msc(payload: SnapshotPayload) -> bytes:
    varints = map(encode_uvarint, (payload.n_vertices, payload.n_times))
    flag = b"\x01" if payload.couplings else b"\x00"
    return b"".join([MSC_MAGIC, *varints, flag, payload.blocks.payload])


def read_msc(data: bytes) -> SnapshotPayload:
    if data[:4] != MSC_MAGIC:
        raise BadMagicError(f"expected magic {MSC_MAGIC!r}")
    pos = 4
    n_vertices, pos = decode_uvarint(data, pos)
    n_times, pos = decode_uvarint(data, pos)
    if n_vertices < 1 or n_times < 1:
        raise FormatError("payload dimensions must be positive")
    if pos >= len(data):
        raise TruncatedError("stream ends before the flag byte")
    flags = data[pos]
    pos += 1
    if flags & ~1:
        raise FormatError(f"unknown flag bits 0x{flags:02x}")
    block_bits = _spatial_count(n_vertices, n_times)
    return SnapshotPayload(
        n_vertices, n_times, bool(flags & 1), BitString.read(data, pos, block_bits)
    )


def msc_header_bits(n_vertices: int, n_times: int) -> int:
    """Serialized bits of an .msc stream that are not block bits."""
    return 8 * (
        len(MSC_MAGIC) + len(encode_uvarint(n_vertices)) + len(encode_uvarint(n_times)) + 1
    )


@dataclass(frozen=True)
class IntervalMap:
    """Strictly increasing interval chain (i, f(i)) starting at instant 0.

    pairs[k] = (i_k, i_k+1) where i_0 = 0 and i_k+1 = f(i_k), i.e. the
    recursive iteration 0, f(0), f(f(0)), ... of a strictly increasing f.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ShapeError("interval map needs at least one pair")
        if pairs[0][0] != 0:
            raise ShapeError("interval iteration must start at instant 0")
        for k, (i, j) in enumerate(pairs):
            if j <= i:
                raise ShapeError(f"pair ({i}, {j}) is not strictly increasing")
            if k and i != pairs[k - 1][1]:
                raise ShapeError(
                    f"pair ({i}, {j}) does not continue the iteration from "
                    f"{pairs[k - 1][1]}"
                )

    def __len__(self) -> int:
        return len(self.pairs)


def contract_intervals(g: SimpleMag, interval_map: IntervalMap) -> SimpleMag:
    """Map each interval edge (u, t_i, v, f(t_i)) to the spatial edge
    (u, t''_k, v, t''_k), where t''_k stands for the k-th interval.

    Every present edge of g must span a mapped interval, join two distinct
    nodes, and be canonically oriented (the node at the earlier instant has
    the smaller node index). Mirrored interval edges carry one bit more per
    node pair than a spatial block can hold, so the contraction is only
    lossless on the canonical domain; anything else raises. The caller
    keeps the map for expand_intervals.
    """
    n_vertices, n_times = _require_order2(g.shape)
    if interval_map.pairs[-1][1] >= n_times:
        raise ShapeError(
            f"interval map reaches instant {interval_map.pairs[-1][1]}, "
            f"MAG has {n_times}"
        )
    positions = _block_positions(*_block_runs(g.shape, *np.array(interval_map.pairs).T))
    bits, strays = _outside(g, positions)
    if strays:
        _raise_not_interval(g.shape, _first_stray(g, [positions], bits), interval_map)
    blocks = BitString.from_array(bits[0])
    return decode_snapshot(SnapshotPayload(n_vertices, len(interval_map), False, blocks))


def _raise_not_interval(shape: CompanionTuple, rank: int, interval_map: IntervalMap):
    u, v = edge_from_rank(shape, rank)
    if (u[1], v[1]) not in interval_map.pairs:
        raise NotIntervalRestrictedError(
            f"edge {u} -- {v} does not span a mapped interval", edge=(u, v)
        )
    if u[0] == v[0]:
        raise NotIntervalRestrictedError(
            f"coupling edge {u} -- {v} has no spatial image", edge=(u, v)
        )
    raise NotIntervalRestrictedError(
        f"edge {u} -- {v} is not canonically oriented", edge=(u, v)
    )


def expand_intervals(
    g: SimpleMag, interval_map: IntervalMap, time_count: int
) -> SimpleMag:
    """Inverse of contract_intervals over the original set of instants."""
    n_vertices, n_blocks = _require_order2(g.shape)
    if n_blocks != len(interval_map):
        raise ShapeError(
            f"MAG has {n_blocks} contracted instants, map has {len(interval_map)}"
        )
    if interval_map.pairs[-1][1] >= time_count:
        raise ShapeError("interval map reaches past the requested instant count")
    blocks = encode_snapshot(g).blocks
    out = SimpleMag(CompanionTuple((n_vertices, time_count)))
    positions = _block_positions(*_block_runs(out.shape, *np.array(interval_map.pairs).T))
    out.bits.set_many(positions[blocks.to_array() == 1])
    return out


@dataclass(frozen=True)
class CouplingCheck:
    diagonal: bool
    categorical: bool
    potentially_layer_connected: bool


def check_multiplex_couplings(g: SimpleMag) -> CouplingCheck:
    """Multiplex-style verdicts with the second aspect read as layers.

    diagonal: every interlayer edge joins the same node to itself, that is,
    the edges outside the spatial ranks (the stray count) are the same-node ones.
    categorical: every pair of layers is coupled at every node, that is, all
    nV * nL(nL - 1)/2 same-node bits are present.
    potentially_layer_connected: always true on a node-aligned MAG.
    """
    n_vertices, n_layers = _require_order2(g.shape)
    non_spatial = _outside(g, spatial_positions(g.shape))[1]
    same_node = sum(int(np.count_nonzero(bits)) for bits in _same_node_bits(g))
    return CouplingCheck(
        non_spatial == same_node,
        same_node == n_vertices * n_layers * (n_layers - 1) // 2,
        True,
    )


def is_sequentially_coupled(g: SimpleMag):
    """(flag, first violation) for the sequential-coupling test.

    Holds iff every same-node temporal edge spans consecutive instants and
    every node is coupled to itself at every consecutive pair of instants.
    A violation is ("missing-coupling" | "non-sequential-coupling", (u, v)),
    the first in (node, i, j) order.
    """
    first = None  # (node, i, j) of the first violation
    for i, present in enumerate(_same_node_bits(g)):
        bad = present != (np.arange(present.shape[1]) == 0)
        if bad.any():
            node, col = divmod(int(bad.argmax()), present.shape[1])
            if first is None or node < first[0]:
                first = (node, i, i + 1 + col)
    if first is None:
        return True, None
    node, i, j = first
    kind = "missing-coupling" if j == i + 1 else "non-sequential-coupling"
    return False, (kind, ((node, i), (node, j)))
