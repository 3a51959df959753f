"""Snapshot codec for second-order MAGs read as (vertices, times/layers).

A spatial edge joins two composite vertices that share the same second-aspect
coordinate. A MAG whose present edges are all spatial can be losslessly
rebuilt from just the spatial presence bits, one block of (nV^2 - nV)/2 bits
per time instant (or layer), plus a header carrying (nV, nT). The encoder
takes those bits out of the packed characteristic string; the decoder sets
them, and with its flag the never-stored sequential couplings
{(u, t_i), (u, t_i+1)}, into an empty one. Both hold O(M/8 + S + N) bytes
(M possible edges, S spatial positions, N vertices), never one byte per
possible edge. The positions, the stray-edge test and the same-node gather
used by the coupling checks here and in topo all rank through core.

Also here: the interval-contraction reduction that turns a TVG whose edges
all span mapped time intervals (t_i, f(t_i)) into a plain spatial TVG, and
the diagonal/categorical multiplex coupling checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitstring import BitString, decode_uvarint, encode_uvarint
from .core import (
    CompanionTuple,
    SimpleMag,
    edge_from_rank,
    pairs_from_ranks,
    ranks_from_pairs,
)
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


def spatial_edge_count(shape: CompanionTuple) -> int:
    """nT * (nV^2 - nV) / 2 possible spatial edges."""
    n_vertices, n_times = _require_order2(shape)
    return n_times * (n_vertices * n_vertices - n_vertices) // 2


def spatial_positions(shape: CompanionTuple) -> np.ndarray:
    """Global ranks of all spatial pairs, in payload block order.

    Entry k is the rank of the k-th payload bit: blocks ordered by time
    instant, pairs within a block lexicographic. With time-major vertex
    indexing each (block, row) is one contiguous rank run.
    """
    n_vertices, n_times = _require_order2(shape)
    n = shape.vertex_count
    rows = np.arange(n, dtype=np.int64)
    starts = ranks_from_pairs(n, rows, rows + 1)
    lengths = (n_vertices - 1) - (rows % n_vertices)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    run_bases = np.repeat(
        starts - np.concatenate(([0], np.cumsum(lengths)[:-1])), lengths
    )
    return run_bases + np.arange(total, dtype=np.int64)


def coupling_positions(shape: CompanionTuple) -> np.ndarray:
    """Global ranks of all sequential couplings {(u, t_i), (u, t_i+1)}."""
    n_vertices, n_times = _require_order2(shape)
    a = np.arange(n_vertices * (n_times - 1), dtype=np.int64)
    return ranks_from_pairs(shape.vertex_count, a, a + n_vertices)


def same_node_ranks(shape: CompanionTuple, i: int) -> np.ndarray:
    """(nV, nT - 1 - i) ranks of {(u, t_i), (u, t_j)}: row u, column j - i - 1."""
    n_vertices, n_times = _require_order2(shape)
    node = np.arange(n_vertices, dtype=np.int64)[:, None]
    later = np.arange(i + 1, n_times, dtype=np.int64)
    return ranks_from_pairs(
        shape.vertex_count, node + i * n_vertices, node + later * n_vertices
    )


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
        expected = self.n_times * (self.n_vertices**2 - self.n_vertices) // 2
        if self.blocks.bit_length != expected:
            raise TruncatedError(
                f"blocks hold {self.blocks.bit_length} bits, expected {expected}"
            )

    def shape(self) -> CompanionTuple:
        return CompanionTuple((self.n_vertices, self.n_times))


def first_stray_rank(g: SimpleMag, implied_couplings: bool = False) -> int | None:
    """Lowest rank of a present edge that is not spatial (nor, with
    implied_couplings, a sequential coupling); None if there is none.

    With time-major indexing, the pair (a, b) is spatial iff a // nV ==
    b // nV, and a sequential coupling iff b == a + nV.
    """
    n_vertices, _ = _require_order2(g.shape)
    for ranks in g.rank_blocks():
        a, b = pairs_from_ranks(g.shape.vertex_count, ranks)
        stray = a // n_vertices != b // n_vertices
        if implied_couplings:
            stray &= b != a + n_vertices
        if stray.any():
            return int(ranks[stray.argmax()])
    return None


def first_non_spatial(g: SimpleMag, implied_couplings: bool = False):
    """Lowest-rank present edge that is not spatial (nor an allowed
    coupling); None if the MAG is snapshot-like."""
    rank = first_stray_rank(g, implied_couplings)
    return None if rank is None else edge_from_rank(g.shape, rank)


def require_snapshot_like(g: SimpleMag, implied_couplings: bool = False) -> None:
    edge = first_non_spatial(g, implied_couplings)
    if edge is not None:
        u, v = edge
        kind = "spatial or sequential-coupling" if implied_couplings else "spatial"
        raise NotSnapshotError(f"edge {u} -- {v} is not {kind}", edge=edge)


def encode_snapshot(
    g: SimpleMag,
    strip_non_spatial: bool = False,
    implied_couplings: bool = False,
) -> SnapshotPayload:
    """Gather the spatial bits of g into a SnapshotPayload.

    Without strip_non_spatial, every present edge must be spatial (or a
    sequential coupling when implied_couplings); otherwise non-spatial
    edges are silently dropped.
    """
    n_vertices, n_times = _require_order2(g.shape)
    if not strip_non_spatial:
        require_snapshot_like(g, implied_couplings)
    blocks = BitString.from_array(g.bits.take(spatial_positions(g.shape)))
    return SnapshotPayload(n_vertices, n_times, implied_couplings, blocks)


def decode_snapshot(payload: SnapshotPayload) -> SimpleMag:
    """Rebuild the full characteristic string from a SnapshotPayload.

    Spatial positions come from the blocks, every other position is zero,
    and when the couplings flag is set all sequential couplings are added.
    """
    shape = payload.shape()
    g = SimpleMag(shape)
    g.bits.set_many(spatial_positions(shape)[payload.blocks.to_array() == 1])
    if payload.couplings:
        g.bits.set_many(coupling_positions(shape))
    return g


def write_msc(payload: SnapshotPayload) -> bytes:
    out = bytearray(MSC_MAGIC)
    out += encode_uvarint(payload.n_vertices)
    out += encode_uvarint(payload.n_times)
    out.append(1 if payload.couplings else 0)
    out += payload.blocks.payload
    return bytes(out)


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
    block_bits = n_times * (n_vertices**2 - n_vertices) // 2
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
    firsts, lasts = np.array(interval_map.pairs).T
    interval_at = np.full(n_times, -1)  # interval index by its first instant
    interval_at[firsts] = np.arange(len(firsts))
    n_blocks = len(interval_map)
    out = SimpleMag(CompanionTuple((n_vertices, n_blocks)))
    for ranks in g.rank_blocks():
        a, b = pairs_from_ranks(g.shape.vertex_count, ranks)
        u, t_u = a % n_vertices, a // n_vertices
        v, t_v = b % n_vertices, b // n_vertices
        # canonical edge order puts the earlier instant first (time-major)
        k = interval_at[t_u]
        bad = (k < 0) | (lasts[k] != t_v) | (u >= v)
        if bad.any():
            _raise_not_interval(g.shape, int(ranks[bad.argmax()]), interval_map)
        out.bits.set_many(
            ranks_from_pairs(n_vertices * n_blocks, u + k * n_vertices, v + k * n_vertices)
        )
    return out


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
    require_snapshot_like(g)
    firsts, lasts = np.array(interval_map.pairs).T
    out = SimpleMag(CompanionTuple((n_vertices, time_count)))
    for ranks in g.rank_blocks():
        a, b = pairs_from_ranks(g.shape.vertex_count, ranks)
        k = a // n_vertices
        out.bits.set_many(ranks_from_pairs(
            n_vertices * time_count,
            a % n_vertices + firsts[k] * n_vertices,
            b % n_vertices + lasts[k] * n_vertices,
        ))
    return out


@dataclass(frozen=True)
class CouplingCheck:
    diagonal: bool
    categorical: bool
    potentially_layer_connected: bool


def check_multiplex_couplings(g: SimpleMag) -> CouplingCheck:
    """Multiplex-style verdicts with the second aspect read as layers.

    diagonal: every interlayer edge joins the same node to itself.
    categorical: every pair of layers is coupled at every node.
    potentially_layer_connected: always true on a node-aligned MAG.
    """
    n_vertices, n_layers = _require_order2(g.shape)
    diagonal = True
    for ranks in g.rank_blocks():
        a, b = pairs_from_ranks(g.shape.vertex_count, ranks)
        across = a // n_vertices != b // n_vertices
        if (across & (a % n_vertices != b % n_vertices)).any():
            diagonal = False
            break
    categorical = all(
        g.bits.take(same_node_ranks(g.shape, alpha)).all()
        for alpha in range(n_layers - 1)
    )
    return CouplingCheck(diagonal, categorical, True)
