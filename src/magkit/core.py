"""Multiaspect-graph shapes, canonical indexing, and the in-memory MAG.

A MAG of order p relates composite vertices: p-tuples drawn from p finite
aspect sets of sizes (n_1, ..., n_p). The whole toolkit rests on two fixed
bijections that depend only on those sizes, never on which edges exist:

  * vertex_index: coordinate tuples <-> [0, N), mixed radix with the first
    aspect varying fastest. For a second-order MAG read as (vertices, times)
    this is time-major, so all composite vertices of one time instant are
    contiguous and same-instant edges form diagonal blocks of the adjacency
    matrix of the order-1 image.
  * edge_rank: unordered pairs of distinct vertex indices <-> [0, M) with
    M = (N^2 - N) / 2, in lexicographic pair order.

A SimpleMag is a shape plus one presence bit per possible composite edge in
rank order; that bit sequence is the MAG's characteristic string.

Both bijections exist twice: as scalar functions for the public per-edge
API, and as one array kernel (pairs_from_ranks, ranks_from_pairs,
coords_from_indices, indices_from_coords) that every pass over the present
edges goes through, block by block (SimpleMag.rank_blocks); edges() decodes
each composite vertex once per call. The bits are packed and unpacked only
in magkit.bitstring; rank_blocks is BitString.ones.

All indices are 0-based.
"""

from __future__ import annotations

import sys
from math import isqrt
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bitstring import BitString
from .errors import (
    ArithmeticOverflowError,
    RangeError,
    SelfLoopError,
    ShapeError,
)

Coords = tuple[int, ...]


class CompanionTuple:
    """Aspect sizes (n_1, ..., n_p); fixes a MAG's shape and orderings."""

    __slots__ = ("sizes", "order", "vertex_count", "possible_edges", "strides")

    def __init__(self, sizes: Sequence[int]):
        sizes = tuple(int(n) for n in sizes)
        if not sizes:
            raise ShapeError("a MAG needs at least one aspect")
        if any(n < 1 for n in sizes):
            raise ShapeError(f"aspect sizes must be positive, got {sizes}")
        strides = []
        total = 1
        for n in sizes:
            strides.append(total)
            total *= n
            if total > sys.maxsize:
                raise ArithmeticOverflowError(
                    "composite vertex count exceeds the platform index range"
                )
        edges = total * (total - 1) // 2
        if edges > sys.maxsize:
            raise ArithmeticOverflowError(
                "possible edge count exceeds the platform index range"
            )
        self.sizes = sizes
        self.order = len(sizes)
        self.vertex_count = total
        self.possible_edges = edges
        self.strides = tuple(strides)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompanionTuple):
            return NotImplemented
        return self.sizes == other.sizes

    def __hash__(self) -> int:
        return hash(self.sizes)

    def __repr__(self) -> str:
        return f"CompanionTuple({self.sizes})"


def vertex_index(shape: CompanionTuple, coords: Sequence[int]) -> int:
    """Mixed-radix index of a composite vertex, first aspect fastest."""
    if len(coords) != shape.order:
        raise ShapeError(
            f"composite vertex has {len(coords)} coordinates, shape expects {shape.order}"
        )
    idx = 0
    for c, n, stride in zip(coords, shape.sizes, shape.strides):
        c = int(c)
        if not 0 <= c < n:
            coords = tuple(int(x) for x in coords)
            raise ShapeError(f"coordinate {c} out of range [0, {n}) in {coords}")
        idx += c * stride
    return idx


def _coords(sizes: tuple[int, ...], index: int) -> Coords:
    coords = []
    for n in sizes:
        index, c = divmod(index, n)
        coords.append(c)
    return tuple(coords)


def vertex_from_index(shape: CompanionTuple, index: int) -> Coords:
    """Inverse of vertex_index."""
    index = int(index)
    if not 0 <= index < shape.vertex_count:
        raise RangeError(
            f"vertex index {index} out of range [0, {shape.vertex_count})"
        )
    return _coords(shape.sizes, index)


def possible_edge_count(shape: CompanionTuple) -> int:
    """(N^2 - N) / 2 possible unordered composite edges."""
    return shape.possible_edges


def edge_rank(shape: CompanionTuple, u: Sequence[int], v: Sequence[int]) -> int:
    """Canonical rank of the unordered composite edge {u, v}.

    Depends only on the shape. Raises SelfLoopError when u == v.
    """
    a = vertex_index(shape, u)
    b = vertex_index(shape, v)
    if a == b:
        raise SelfLoopError(f"self-loop at composite vertex {tuple(u)}")
    if a > b:
        a, b = b, a
    return a * shape.vertex_count - a * (a + 1) // 2 + (b - a - 1)


def edge_from_rank(shape: CompanionTuple, rank: int) -> tuple[Coords, Coords]:
    """Inverse of edge_rank; endpoint with smaller vertex index first."""
    rank = int(rank)
    if not 0 <= rank < shape.possible_edges:
        raise RangeError(
            f"edge rank {rank} out of range [0, {shape.possible_edges})"
        )
    # Counted from the last rank, rows of the upper triangle are 1, 2, 3, ...
    # long, so the row is the exact triangular root of that count.
    t = shape.possible_edges - 1 - rank
    j = (isqrt(8 * t + 1) - 1) // 2
    a = shape.vertex_count - 2 - j
    b = shape.vertex_count - 1 - (t - j * (j + 1) // 2)
    return _coords(shape.sizes, a), _coords(shape.sizes, b)


# The array kernel: the same bijections on int64 arrays, exact for every
# vertex count N <= 2**31 (every product below stays under 2**62). Inputs
# are assumed in range; callers check them.


def ranks_from_pairs(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ranks of the pairs (a, b), a < b, over vertex indices [0, n)."""
    a = np.asarray(a, dtype=np.int64)
    return a * n - a * (a + 1) // 2 + (np.asarray(b, dtype=np.int64) - a - 1)


def pairs_from_ranks(n: int, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ranks_from_pairs: the arrays (a, b), a < b."""
    t = (n * (n - 1) // 2 - 1) - np.asarray(ranks, dtype=np.int64)
    # Float triangular root of the count from the last rank, then one step
    # that corrects the floor by at most one either way.
    j = ((np.sqrt(8.0 * t + 1.0) - 1.0) // 2).astype(np.int64)
    j -= j * (j + 1) // 2 > t
    j += (j + 1) * (j + 2) // 2 <= t
    return n - 2 - j, n - 1 - (t - j * (j + 1) // 2)


def coords_from_indices(shape: CompanionTuple, idx: np.ndarray) -> np.ndarray:
    """(k, p) coordinates of k vertex indices."""
    idx = np.asarray(idx, dtype=np.int64)
    return idx[:, None] // np.array(shape.strides) % np.array(shape.sizes)


def indices_from_coords(shape: CompanionTuple, coords: np.ndarray) -> np.ndarray:
    """Vertex indices of coordinates whose last axis runs over the p aspects."""
    return (np.asarray(coords, dtype=np.int64) * np.array(shape.strides)).sum(axis=-1)


class SimpleMag:
    """Undirected MAG without self-loops: shape + packed presence bits.

    Bit j of `bits` is 1 iff the edge of rank j is present, i.e. `bits` is
    the characteristic string under the canonical edge ordering.

    Intended use is build-then-read: all reads are pure and safe to share
    across threads once mutation (set_edge) has stopped.
    """

    __slots__ = ("shape", "bits")

    def __init__(self, shape: CompanionTuple, bits: BitString | None = None):
        if bits is None:
            bits = BitString(shape.possible_edges)
        elif bits.bit_length != shape.possible_edges:
            raise ShapeError(
                f"characteristic string holds {bits.bit_length} bits, "
                f"shape requires {shape.possible_edges}"
            )
        self.shape = shape
        self.bits = bits

    @classmethod
    def from_edges(
        cls, shape: CompanionTuple, edges: Iterable[tuple[Sequence[int], Sequence[int]]]
    ) -> "SimpleMag":
        g = cls(shape)
        for u, v in edges:
            g.set_edge(u, v)
        return g

    def has_edge(self, u: Sequence[int], v: Sequence[int]) -> bool:
        return self.bits.get(edge_rank(self.shape, u, v))

    def set_edge(self, u: Sequence[int], v: Sequence[int], present: bool = True) -> None:
        self.bits.set(edge_rank(self.shape, u, v), present)

    def edge_count(self) -> int:
        return self.bits.count()

    def rank_blocks(self) -> Iterator[np.ndarray]:
        """Ranks of present edges in ascending order, as int64 arrays of at
        most bitstring.BLOCK ranks (BitString.ones)."""
        return self.bits.ones()

    def present_ranks(self) -> Iterator[int]:
        """Ranks of present edges in ascending order."""
        for ranks in self.rank_blocks():
            yield from ranks.tolist()

    def edges(self) -> Iterator[tuple[Coords, Coords]]:
        """Present edges in rank order, smaller-index endpoint first."""
        n = self.shape.vertex_count
        vertices = list(map(tuple, coords_from_indices(self.shape, np.arange(n)).tolist()))
        for ranks in self.rank_blocks():
            a, b = pairs_from_ranks(n, ranks)
            yield from zip(map(vertices.__getitem__, a.tolist()),
                           map(vertices.__getitem__, b.tolist()))

    def to_classical_edges(self) -> list[tuple[int, int]]:
        """Edge list of the order-1 image over vertex indices [0, N)."""
        edges = []
        for ranks in self.rank_blocks():
            a, b = pairs_from_ranks(self.shape.vertex_count, ranks)
            edges += zip(a.tolist(), b.tolist())
        return edges

    def copy(self) -> "SimpleMag":
        return SimpleMag(self.shape, self.bits.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleMag):
            return NotImplemented
        return self.shape == other.shape and self.bits == other.bits

    def __repr__(self) -> str:
        name = type(self).__name__
        return f"{name}(shape={self.shape.sizes}, edges={self.edge_count()})"
