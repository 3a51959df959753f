"""Snapshot codec for second-order MAGs read as (vertices, times/layers).

A spatial edge joins two composite vertices that share the same second-aspect
coordinate. A MAG whose present edges are all spatial can be losslessly
rebuilt from just the spatial presence bits, one block of (nV^2 - nV)/2 bits
per time instant (or layer), plus a header carrying (nV, nT). The encoder
takes those bits out of the packed characteristic string; the decoder sets
them, and with its flag the never-stored sequential couplings
{(u, t_i), (u, t_i+1)}, into an empty one. Both hold O(M/8 + S + N) bytes
(M possible edges, S spatial positions, N vertices), never one byte per
possible edge. The stray-edge test and interval contraction and expansion
decode each block of present ranks once, into the (node, instant) of both
endpoints; the coupling verdicts decode none, but count gathered bits.

Also here: the interval-contraction reduction that turns a TVG whose edges
all span mapped time intervals (t_i, f(t_i)) into a plain spatial TVG, and
the diagonal/categorical multiplex coupling checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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


def _spatial_count(n_vertices: int, n_times: int) -> int:
    return n_times * (n_vertices * n_vertices - n_vertices) // 2


def spatial_edge_count(shape: CompanionTuple) -> int:
    """nT * (nV^2 - nV) / 2 possible spatial edges."""
    return _spatial_count(*_require_order2(shape))


def spatial_positions(shape: CompanionTuple) -> np.ndarray:
    """Global ranks of all spatial pairs, in payload block order.

    Entry k is the rank of the k-th payload bit: blocks ordered by time
    instant, pairs within a block lexicographic. With time-major vertex
    indexing each (block, row) is one contiguous rank run.
    """
    n_vertices, _ = _require_order2(shape)
    n = shape.vertex_count
    rows = np.arange(n, dtype=np.int64)
    starts = ranks_from_pairs(n, rows, rows + 1)
    lengths = (n_vertices - 1) - (rows % n_vertices)
    run_bases = np.repeat(
        starts - np.concatenate(([0], np.cumsum(lengths)[:-1])), lengths
    )
    return run_bases + np.arange(run_bases.size, dtype=np.int64)


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
        expected = _spatial_count(self.n_vertices, self.n_times)
        if self.blocks.bit_length != expected:
            raise TruncatedError(
                f"blocks hold {self.blocks.bit_length} bits, expected {expected}"
            )

    def shape(self) -> CompanionTuple:
        return CompanionTuple((self.n_vertices, self.n_times))


def _decoded_blocks(g: SimpleMag) -> Iterator[tuple[np.ndarray, ...]]:
    """(ranks, u, t, v, s) per rank block of g: the present ranks, ascending,
    and the (node, instant) of both endpoints. Vertex (u, t) is u + t * nV."""
    n_vertices, _ = _require_order2(g.shape)
    for ranks in g.rank_blocks():
        a, b = pairs_from_ranks(g.shape.vertex_count, ranks)
        t, u = np.divmod(a, n_vertices)
        s, v = np.divmod(b, n_vertices)
        yield ranks, u, t, v, s


def _stray(u, t, v, s, implied_couplings: bool) -> np.ndarray:
    """Not spatial, nor (with implied_couplings) a coupling {(u, t), (u, t + 1)}."""
    stray = t != s
    if implied_couplings:
        stray &= (u != v) | (s != t + 1)
    return stray


def first_stray_rank(g: SimpleMag, implied_couplings: bool = False) -> int | None:
    """Lowest rank of a present edge that is not spatial (nor, with
    implied_couplings, a sequential coupling); None if there is none."""
    for ranks, u, t, v, s in _decoded_blocks(g):
        stray = _stray(u, t, v, s, implied_couplings)
        if stray.any():
            return int(ranks[stray.argmax()])
    return None


def _raise_not_snapshot(shape: CompanionTuple, rank: int, implied_couplings: bool):
    u, v = edge_from_rank(shape, rank)
    kind = "spatial or sequential-coupling" if implied_couplings else "spatial"
    raise NotSnapshotError(f"edge {u} -- {v} is not {kind}", edge=(u, v))


def require_snapshot_like(g: SimpleMag, implied_couplings: bool = False) -> None:
    rank = first_stray_rank(g, implied_couplings)
    if rank is not None:
        _raise_not_snapshot(g.shape, rank, implied_couplings)


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
    firsts, lasts = np.array(interval_map.pairs).T
    interval_at = np.full(n_times, -1)  # interval index by its first instant
    interval_at[firsts] = np.arange(len(firsts))
    n_blocks = len(interval_map)
    out = SimpleMag(CompanionTuple((n_vertices, n_blocks)))
    for ranks, u, t, v, s in _decoded_blocks(g):
        # canonical edge order puts the earlier instant first (time-major)
        k = interval_at[t]
        bad = (k < 0) | (lasts[k] != s) | (u >= v)
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
    firsts, lasts = np.array(interval_map.pairs).T
    out = SimpleMag(CompanionTuple((n_vertices, time_count)))
    for ranks, u, t, v, s in _decoded_blocks(g):
        stray = _stray(u, t, v, s, False)
        if stray.any():  # blocks ascend, so this is the lowest-ranked stray
            _raise_not_snapshot(g.shape, int(ranks[stray.argmax()]), False)
        out.bits.set_many(ranks_from_pairs(
            n_vertices * time_count, u + firsts[t] * n_vertices, v + lasts[t] * n_vertices
        ))
    return out


@dataclass(frozen=True)
class CouplingCheck:
    diagonal: bool
    categorical: bool
    potentially_layer_connected: bool


def check_multiplex_couplings(g: SimpleMag) -> CouplingCheck:
    """Multiplex-style verdicts with the second aspect read as layers.

    diagonal: every interlayer edge joins the same node to itself, that is,
    the present spatial and same-node bits (disjoint sets) are all the edges.
    categorical: every pair of layers is coupled at every node.
    potentially_layer_connected: always true on a node-aligned MAG.
    """
    _, n_layers = _require_order2(g.shape)
    allowed = int(np.count_nonzero(g.bits.take(spatial_positions(g.shape))))
    categorical = True
    for alpha in range(n_layers - 1):
        same_node = g.bits.take(same_node_ranks(g.shape, alpha))
        allowed += int(np.count_nonzero(same_node))
        categorical = categorical and bool(same_node.all())
    return CouplingCheck(allowed == g.edge_count(), categorical, True)
