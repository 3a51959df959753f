"""Topology analyzers over the composite-edge structure.

Degrees, composite diameter, common neighbors (the interior vertices of the
vertex-disjoint 2-paths between a pair), and detection of non-sequential
interdimensional edges: edges whose coordinates on a chosen aspect differ by
two or more (transtemporal when that aspect is time, crosslayer when it is a
layer type). The report also carries two order-2 verdicts of
`magkit.snapshot`, bound here: sequential coupling and snapshot-likeness.

One adjacency is built once per report and shared by every analyzer: an
`Adjacency` is the MAG itself (a SimpleMag sharing its shape and bits) plus a
dense uint8 matrix A, written once from the string's rank run of each vertex
row, from which one blocked pass over A·A keeps the common-neighbor extremes
and the distance <= 2 mask A ∨ A² (the matrix form of MAG traversal); each
row block multiplies only its non-zero column span. The diameter is read off
that mask; when some pair is farther than two apart, it comes from the
multi-source packed-word BFS of `magkit.traversal`, which starts every source
at depth 2 from that mask. The non-sequential census and reachability check
read one coordinate-block sum, of A and of that mask, as an upper triangle.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from .core import (
    CompanionTuple,
    SimpleMag,
    ranks_from_pairs,
    vertex_from_index,
    vertex_index,
)
from .errors import ArgumentError, ShapeError
from .snapshot import is_sequentially_coupled, is_snapshot_like
from .traversal import bfs_diameter

_MATMUL_BLOCK = 256


class Adjacency(SimpleMag):
    """A MAG with its adjacency, built once and read by every analyzer.

    Shares g's shape and bits, so mutating them after the build leaves the
    matrix stale. Holds the dense matrix; the A·A pass is computed on first
    use.
    """

    def __init__(self, g: SimpleMag):
        super().__init__(g.shape, g.bits)
        self.matrix = dense_adjacency(g)

    @classmethod
    def from_edges(cls, shape: CompanionTuple, edges) -> Adjacency:
        return cls(SimpleMag.from_edges(shape, edges))

    @property
    def within_two(self) -> np.ndarray:
        """N x N bool: distance <= 2, i.e. A ∨ A·A > 0, diagonal set."""
        return self._square_pass[0]

    @property
    def extremes(self) -> tuple[int, int] | None:
        """(min, max) off-diagonal common-neighbor count; None when N < 2."""
        return self._square_pass[1]

    @cached_property
    def _square_pass(self) -> tuple[np.ndarray, tuple[int, int] | None]:
        # Reduces each row block of A·A as it is made, so the N x N count
        # matrix never exists at once.
        n = self.matrix.shape[0]
        within = np.empty((n, n), dtype=bool)
        low, high = np.inf, -np.inf
        for lo, hi, block in _square_blocks(self.matrix):
            np.logical_or(block > 0, self.matrix[lo:hi], out=within[lo:hi])
            np.fill_diagonal(block[:, lo:hi], np.inf)
            low = min(low, block.min())
            np.fill_diagonal(block[:, lo:hi], -np.inf)
            high = max(high, block.max())
        np.fill_diagonal(within, True)
        return within, None if n < 2 else (int(low), int(high))


def _adjacency(g: SimpleMag) -> Adjacency:
    return g if isinstance(g, Adjacency) else Adjacency(g)


def _square_blocks(matrix: np.ndarray):
    """(lo, hi, rows lo:hi of A·A as float32) over row blocks of A.

    Each block multiplies only the columns c0:c1 from its first to its last
    non-zero column, outside which rows lo:hi of A are zero (narrow where A
    is block-tridiagonal, as on a coupled snapshot TVG; empty with no edges).
    """
    a = matrix.astype(np.float32)
    n = a.shape[0]
    for lo in range(0, n, _MATMUL_BLOCK):
        hi = min(lo + _MATMUL_BLOCK, n)
        cols = np.flatnonzero(matrix[lo:hi].any(axis=0))
        c0, c1 = (cols[0], cols[-1] + 1) if cols.size else (0, 0)
        yield lo, hi, a[lo:hi, c0:c1] @ a[c0:c1]


def adjacency_rows(g: SimpleMag) -> list[int]:
    """Row bitsets: bit b of row a is set iff edge {a, b} is present."""
    packed = np.packbits(_adjacency(g).matrix, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed]


def dense_adjacency(g: SimpleMag) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix over vertex indices: row a's edges
    {a, b > a} are one rank run, written into row a and column a."""
    n = g.shape.vertex_count
    adj = np.zeros((n, n), dtype=np.uint8)
    bits = g.bits.to_array()
    rows = np.arange(n)
    for a, start in enumerate(ranks_from_pairs(n, rows, rows + 1).tolist()):
        adj[a, a + 1 :] = adj[a + 1 :, a] = bits[start : start + n - 1 - a]
    return adj


def degree_profile(g: SimpleMag) -> tuple[list[int], float]:
    """Degrees of every composite vertex and the max |d(v) - (N-1)/2|."""
    degrees = _adjacency(g).matrix.sum(axis=1, dtype=np.int64)
    n = degrees.size
    half = (n - 1) / 2
    deviation = float(np.abs(degrees - half).max())
    return degrees.tolist(), deviation


def composite_diameter(g: SimpleMag) -> int | None:
    """Max BFS eccentricity over composite vertices; None if disconnected.

    1 when every possible edge is present and 2 when every pair is
    within two steps, read off A ∨ A². Otherwise a multi-source BFS over
    packed words (`traversal.bfs_diameter`) starts from A ∨ A² at depth 2.
    """
    if g.shape.vertex_count == 1:
        return 0
    if g.edge_count() == g.shape.possible_edges:
        return 1
    adj = _adjacency(g)
    within = adj.within_two
    if within.all():
        return 2
    return bfs_diameter(adj.matrix, within)


def common_neighbor_count(g: SimpleMag, u: Sequence[int], v: Sequence[int]) -> int:
    """|N(u) & N(v)|; u and v themselves can never appear in it."""
    a = vertex_index(g.shape, u)
    b = vertex_index(g.shape, v)
    if a == b:
        raise ArgumentError("common neighbors need two distinct composite vertices")
    n = g.shape.vertex_count
    x = np.delete(np.arange(n), (a, b))
    # the bits of {a, x} and {b, x}: two rows of the adjacency, from the string
    rows = [g.bits.take(ranks_from_pairs(n, np.minimum(c, x), np.maximum(c, x))) for c in (a, b)]
    return int((rows[0] & rows[1]).sum(dtype=np.int64))


def common_neighbor_matrix(g: SimpleMag) -> np.ndarray:
    """All-pairs common-neighbor counts (int32, diagonal = degrees)."""
    matrix = _adjacency(g).matrix
    n = matrix.shape[0]
    out = np.empty((n, n), dtype=np.int32)
    for lo, hi, block in _square_blocks(matrix):
        out[lo:hi] = block.astype(np.int32)
    return out


def common_neighbor_extremes(g: SimpleMag) -> tuple[int, int] | None:
    """(min, max) common-neighbor count over all pairs; None when N < 2."""
    return _adjacency(g).extremes


def is_non_sequential_interdimensional(
    u: Sequence[int], v: Sequence[int], aspect: int
) -> bool:
    """True iff the endpoints' aspect-`aspect` coordinates differ by >= 2.

    `aspect` is 1-based; aspect 1 (the vertices) carries no ordering, so
    only 2..p are admissible.
    """
    if len(u) != len(v):
        raise ShapeError("endpoints have different orders")
    if not 2 <= aspect <= len(u):
        raise ArgumentError(f"aspect {aspect} out of range [2, {len(u)}]")
    return abs(u[aspect - 1] - v[aspect - 1]) >= 2


def _by_coordinate(matrix: np.ndarray, shape: CompanionTuple, aspect: int) -> np.ndarray:
    """An N x N matrix as an (outer, n_k, inner) x (outer, n_k, inner) view,
    the one aspect split of a vertex index, which needs no copy: mixed radix
    makes an index (o * n_k + c) * inner + i, c the coordinate on `aspect`,
    i over the aspects before it (inner = stride_k), o over those after.
    The census and the reachability check both read its `_block_sums`."""
    n_k = shape.sizes[aspect - 1]
    inner = shape.strides[aspect - 1]
    return matrix.reshape((shape.vertex_count // (n_k * inner), n_k, inner) * 2)


def _block_sums(view: np.ndarray) -> np.ndarray:
    """n_k x n_k: the set entries of each (c, d) block of a `_by_coordinate` view."""
    return view.sum(axis=(0, 2, 3, 5), dtype=np.int64)


def non_sequential_census(g: SimpleMag) -> dict[int, int]:
    """Per-aspect counts of present edges with coordinate gap >= 2."""
    matrix = _adjacency(g).matrix
    shape = g.shape
    # A is symmetric: the blocks with d - c >= 2 hold each such edge once.
    return {
        aspect: int(np.triu(_block_sums(_by_coordinate(matrix, shape, aspect)), k=2).sum())
        for aspect in range(2, shape.order + 1)
    }


class FailingPairs(Sequence):
    """Read-only pairs (u, v) of composite vertices, lexicographic in
    (c_u, c_v, index of u, index of v) for the coordinates c on one aspect.

    Holds the `_by_coordinate` view of A ∨ A², so it keeps those N² bools
    alive, and the cumulative failure count of each (c_u, c_v) block. An item
    takes its block's unset bits, in (o_u, i_u, o_v, i_v) order, which is
    index order; the last block read is kept, so iteration reads each once.
    """

    __slots__ = ("_shape", "_within", "_ends", "_block")

    def __init__(self, shape: CompanionTuple, within: np.ndarray, counts: np.ndarray):
        self._shape = shape
        self._within = within
        self._ends = np.cumsum(counts.ravel())
        self._block = (-1, None)

    def __len__(self) -> int:
        return int(self._ends[-1])

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self._pair(k) for k in range(len(self))[item]]
        return self._pair(range(len(self))[item])

    def _pair(self, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        outer, n_k, inner = split = self._within.shape[:3]
        block = int(np.searchsorted(self._ends, k, side="right"))
        c_u, c_v = divmod(block, n_k)
        read, failing = self._block  # read once: a concurrent reader may swap it
        if read != block:
            failing = np.flatnonzero(~self._within[:, c_u, :, :, c_v, :])
            self._block = block, failing
        start = int(self._ends[block]) - failing.size
        o_u, i_u, o_v, i_v = np.unravel_index(failing[k - start], (outer, inner) * 2)
        a, b = np.ravel_multi_index(([o_u, o_v], [c_u, c_v], [i_u, i_v]), split).tolist()
        return vertex_from_index(self._shape, a), vertex_from_index(self._shape, b)


def _check_reachability_aspect(shape: CompanionTuple, aspect: int) -> None:
    if shape.order < 2:
        raise ShapeError("reachability check needs order >= 2")
    if not 2 <= aspect <= shape.order:
        raise ArgumentError(f"aspect {aspect} out of range [2, {shape.order}]")


def verify_non_sequential_reachability(g: SimpleMag, aspect: int):
    """(verdict, failing pairs) for aspect-k reachability.

    For every pair of composite vertices whose aspect-k coordinates are
    more than two apart, confirms a connecting path of length <= 2 that
    contains at least one non-sequential interdimensional edge on aspect k.
    Vacuously true when no pair qualifies.

    With coordinates i and j, j - i >= 3, a direct edge is non-sequential,
    and every common neighbor w has |c_w - i| >= 2 or |c_w - j| >= 2, so a
    pair fails exactly when it lies outside A ∨ A². The blocks with
    c_b - c_a >= 3 count their failures in place in the cached A ∨ A², which
    nothing writes; they come as a FailingPairs sequence, lower coordinate first.
    """
    shape = g.shape
    _check_reachability_aspect(shape, aspect)
    within = _by_coordinate(_adjacency(g).within_two, shape, aspect)
    outer, _, inner = within.shape[:3]
    counts = np.triu((outer * inner) ** 2 - _block_sums(within), k=3)
    failures = FailingPairs(shape, within, counts)
    return not failures, failures


def topo_report(g: SimpleMag, reachability_aspect: int | None = None) -> dict:
    """Full analyzer sweep as a JSON-ready dict (stable, sortable keys)."""
    shape = g.shape
    if reachability_aspect is not None:
        _check_reachability_aspect(shape, reachability_aspect)
    adj = Adjacency(g)
    degrees, deviation = degree_profile(adj)
    extremes = common_neighbor_extremes(adj)
    diameter = composite_diameter(adj)
    report = {
        "shape": list(shape.sizes),
        "edgeCount": g.edge_count(),
        "degrees": degrees,
        "maxDegreeDeviation": deviation,
        "diameter": "disconnected" if diameter is None else diameter,
        "minCommonNeighbors": None if extremes is None else extremes[0],
        "maxCommonNeighbors": None if extremes is None else extremes[1],
        "sequentiallyCoupled": None,
        "snapshotLike": None,
        "interdimensionalCensus": {
            str(aspect): count for aspect, count in non_sequential_census(adj).items()
        },
    }
    if shape.order == 2:
        report["sequentiallyCoupled"] = is_sequentially_coupled(adj)[0]
        report["snapshotLike"] = is_snapshot_like(adj)
    if reachability_aspect is not None:
        verdict, failures = verify_non_sequential_reachability(adj, reachability_aspect)
        report["nonSequentialReachability"] = {
            "aspect": reachability_aspect,
            "verdict": verdict,
            "failingPairCount": len(failures),
            "failingPairs": [
                [list(u), list(v)] for u, v in failures[:10]
            ],
        }
    return report
