"""Topology analyzers over the composite-edge structure.

Degrees, composite diameter, common neighbors (the interior vertices of the
vertex-disjoint 2-paths between a pair), sequential-coupling and
snapshot-likeness verdicts, and detection of non-sequential interdimensional
edges: edges whose coordinates on a chosen aspect differ by two or more
(transtemporal when that aspect is time, crosslayer when it is a layer type).

One adjacency is built once per report and shared by every analyzer: a
dense uint8 matrix A, from which one blocked pass over A·A keeps the
common-neighbor extremes and the distance <= 2 mask A ∨ A² (the matrix form
of MAG traversal). The diameter and the non-sequential reachability are
read off that mask. When some pair is farther than two apart, the diameter
comes from the multi-source packed-word BFS of `magkit.traversal`, which
starts every source at depth 2 from that mask.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from .core import (
    CompanionTuple,
    SimpleMag,
    vertex_from_index,
    vertex_index,
)
from .errors import ArgumentError, ShapeError
from .snapshot import _require_order2, first_stray_rank, same_node_ranks
from .traversal import bfs_diameter

_MATMUL_BLOCK = 256


class Adjacency:
    """The adjacency of one MAG, built once and read by every analyzer.

    Holds the dense matrix; the A·A pass is computed on first use. Every
    public analyzer accepts either a SimpleMag or an Adjacency.
    """

    def __init__(self, g: SimpleMag):
        self.mag = g
        self.matrix = dense_adjacency(g)

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
            rows = np.arange(hi - lo)
            block[rows, rows + lo] = np.inf
            low = min(low, block.min())
            block[rows, rows + lo] = -np.inf
            high = max(high, block.max())
        np.fill_diagonal(within, True)
        return within, None if n < 2 else (int(low), int(high))


def _adjacency(g: SimpleMag | Adjacency) -> Adjacency:
    return g if isinstance(g, Adjacency) else Adjacency(g)


def _mag(g: SimpleMag | Adjacency) -> SimpleMag:
    return g.mag if isinstance(g, Adjacency) else g


def _square_blocks(matrix: np.ndarray):
    """(lo, hi, rows lo:hi of A·A as float32) over row blocks of A."""
    a = matrix.astype(np.float32)
    n = a.shape[0]
    for lo in range(0, n, _MATMUL_BLOCK):
        hi = min(lo + _MATMUL_BLOCK, n)
        yield lo, hi, a[lo:hi] @ a


def adjacency_rows(g: SimpleMag | Adjacency) -> list[int]:
    """Row bitsets: bit b of row a is set iff edge {a, b} is present."""
    packed = np.packbits(dense_adjacency(g), axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed]


def dense_adjacency(g: SimpleMag | Adjacency) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix over vertex indices."""
    if isinstance(g, Adjacency):
        return g.matrix
    n = g.shape.vertex_count
    adj = np.zeros((n, n), dtype=np.uint8)
    # A boolean mask fills in row-major order, which is rank order.
    adj[np.triu(np.ones((n, n), dtype=bool), 1)] = g.bits.to_array()
    adj |= adj.T
    return adj


def degree_profile(g: SimpleMag | Adjacency) -> tuple[list[int], float]:
    """Degrees of every composite vertex and the max |d(v) - (N-1)/2|."""
    degrees = dense_adjacency(g).sum(axis=1, dtype=np.int64)
    n = degrees.size
    half = (n - 1) / 2
    deviation = float(np.abs(degrees - half).max())
    return degrees.tolist(), deviation


def composite_diameter(g: SimpleMag | Adjacency) -> int | None:
    """Max BFS eccentricity over composite vertices; None if disconnected.

    1 when every pair is adjacent and 2 when every pair is within two
    steps, read off A ∨ A². Otherwise a multi-source BFS over packed
    words (`traversal.bfs_diameter`) starts from A ∨ A² at depth 2.
    """
    adj = _adjacency(g)
    n = adj.matrix.shape[0]
    if n == 1:
        return 0
    if int(adj.matrix.sum(dtype=np.int64)) == n * (n - 1):
        return 1
    within = adj.within_two
    if within.all():
        return 2
    return bfs_diameter(adj.matrix, within)


def common_neighbor_count(
    g: SimpleMag | Adjacency, u: Sequence[int], v: Sequence[int]
) -> int:
    """|N(u) & N(v)|; u and v themselves can never appear in it."""
    shape = _mag(g).shape
    a = vertex_index(shape, u)
    b = vertex_index(shape, v)
    if a == b:
        raise ArgumentError("common neighbors need two distinct composite vertices")
    matrix = dense_adjacency(g)
    return int((matrix[a] & matrix[b]).sum(dtype=np.int64))


def common_neighbor_matrix(g: SimpleMag | Adjacency) -> np.ndarray:
    """All-pairs common-neighbor counts (int32, diagonal = degrees)."""
    matrix = dense_adjacency(g)
    n = matrix.shape[0]
    out = np.empty((n, n), dtype=np.int32)
    for lo, hi, block in _square_blocks(matrix):
        out[lo:hi] = block.astype(np.int32)
    return out


def common_neighbor_extremes(g: SimpleMag | Adjacency) -> tuple[int, int] | None:
    """(min, max) common-neighbor count over all pairs; None when N < 2."""
    return _adjacency(g).extremes


def is_sequentially_coupled(g: SimpleMag | Adjacency):
    """(flag, first violation) for the sequential-coupling test.

    Holds iff every same-node temporal edge spans consecutive instants and
    every node is coupled to itself at every consecutive pair of instants.
    A violation is ("missing-coupling" | "non-sequential-coupling", (u, v)),
    the first in (node, i, j) order.
    """
    g = _mag(g)
    _require_order2(g.shape)
    first = None  # (node, i, j) of the first violation
    for i in range(g.shape.sizes[1] - 1):
        present = g.bits.take(same_node_ranks(g.shape, i))
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


def is_snapshot_like(g: SimpleMag | Adjacency, implied_couplings: bool = False) -> bool:
    """True iff every present edge is spatial (or a sequential coupling
    when implied_couplings), i.e. the snapshot encoder would accept g."""
    return first_stray_rank(_mag(g), implied_couplings) is None


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
    """An N x N matrix as a (outer, c, inner) x (outer, c, inner) view.

    Mixed radix makes vertex index = (outer * n_k + c) * stride_k + inner,
    where c is the coordinate on `aspect`, so splitting each axis this way
    needs no copy.
    """
    n_k = shape.sizes[aspect - 1]
    inner = shape.strides[aspect - 1]
    outer = shape.vertex_count // (n_k * inner)
    return matrix.reshape(outer, n_k, inner, outer, n_k, inner)


def non_sequential_census(g: SimpleMag | Adjacency) -> dict[int, int]:
    """Per-aspect counts of present edges with coordinate gap >= 2."""
    matrix = dense_adjacency(g)
    shape = _mag(g).shape
    census = {}
    for aspect in range(2, shape.order + 1):
        # blocks[c, d]: edges from coordinate c to d, each edge counted
        # once from either end.
        blocks = _by_coordinate(matrix, shape, aspect).sum(
            axis=(0, 2, 3, 5), dtype=np.int64
        )
        coords = np.arange(blocks.shape[0])
        gap = np.abs(coords[:, None] - coords[None, :]) >= 2
        census[aspect] = int(blocks[gap].sum()) // 2
    return census


class FailingPairs(Sequence):
    """Read-only pairs (u, v) of composite vertices, lexicographic in
    (c_u, c_v, index of u, index of v) for the coordinates c on one aspect.

    Holds the positions of the pairs in the coordinate-major layout of
    verify_non_sequential_reachability and builds coordinate tuples only
    for the items read.
    """

    __slots__ = ("_shape", "_aspect", "_positions")

    def __init__(self, shape: CompanionTuple, aspect: int, positions: np.ndarray):
        self._shape = shape
        self._aspect = aspect
        self._positions = positions

    def __len__(self) -> int:
        return int(self._positions.size)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self._pair(p) for p in self._positions[item]]
        return self._pair(self._positions[item])

    def _pair(self, position) -> tuple[tuple[int, ...], tuple[int, ...]]:
        shape = self._shape
        n_k = shape.sizes[self._aspect - 1]
        inner = shape.strides[self._aspect - 1]
        group = shape.vertex_count // n_k
        c_u, c_v, p_u, p_v = np.unravel_index(int(position), (n_k, n_k, group, group))
        a = (p_u // inner * n_k + c_u) * inner + p_u % inner
        b = (p_v // inner * n_k + c_v) * inner + p_v % inner
        return vertex_from_index(shape, a), vertex_from_index(shape, b)


def verify_non_sequential_reachability(g: SimpleMag | Adjacency, aspect: int):
    """(verdict, failing pairs) for aspect-k reachability.

    For every pair of composite vertices whose aspect-k coordinates are
    more than two apart, confirms a connecting path of length <= 2 that
    contains at least one non-sequential interdimensional edge on aspect k.
    Vacuously true when no pair qualifies.

    With coordinates i and j, j - i >= 3, a direct edge is non-sequential,
    and every common neighbor w has |c_w - i| >= 2 or |c_w - j| >= 2, so a
    pair fails exactly when it lies outside A ∨ A². Failing pairs come as a
    FailingPairs sequence, lower coordinate first.
    """
    shape = _mag(g).shape
    if shape.order < 2:
        raise ShapeError("reachability check needs order >= 2")
    if not 2 <= aspect <= shape.order:
        raise ArgumentError(f"aspect {aspect} out of range [2, {shape.order}]")
    n_k = shape.sizes[aspect - 1]
    group = shape.vertex_count // n_k
    coords = np.arange(n_k)
    qualifying = coords[None, :] - coords[:, None] >= 3
    within = _by_coordinate(_adjacency(g).within_two, shape, aspect)
    # (c_a, c_b, a within c_a, b within c_b), index order within each group
    within = within.transpose(1, 4, 0, 2, 3, 5).reshape(n_k, n_k, group, group)
    failing = qualifying[:, :, None, None] & ~within
    failures = FailingPairs(shape, aspect, np.flatnonzero(failing))
    return not failures, failures


def topo_report(g: SimpleMag, reachability_aspect: int | None = None) -> dict:
    """Full analyzer sweep as a JSON-ready dict (stable, sortable keys)."""
    shape = g.shape
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
