"""Multi-source breadth-first search over packed words.

The bit-parallel multi-source BFS of Then et al., "The More the Merrier:
Efficient Multi-Source Graph Traversal" (PVLDB 8(4), 2014): bit s of a
vertex's uint64 words means source s has reached it, so one level of one
block of 256 sources is one vectorised gather over a CSR of the adjacency,
with no Python loop over sources or frontier vertices. A block starts from
its columns of A ∨ A², as visited set and frontier; A only builds the CSR.
"""

from __future__ import annotations

import numpy as np

# Sources per block: four uint64 words of source bits per vertex.
_BLOCK = 256
# CSR entries gathered at once, so a level's temporary stays
# O(_GATHER_EDGES * _BLOCK / 8) bytes whatever the edge count.
_GATHER_EDGES = 1 << 15
# Matrix rows turned into CSR columns at once.
_CSR_ROWS = 256


def bfs_diameter(matrix: np.ndarray, within_two: np.ndarray) -> int | None:
    """Diameter of the graph of a symmetric 0/1 matrix; None if disconnected.

    `within_two` is its distance <= 2 mask, diagonal set, and must leave
    some pair unset. Each block of sources starts at depth 2 from its columns
    of it, as both visited set and frontier; `matrix` only builds the CSR.
    """
    n = within_two.shape[0]
    indptr, cols = _csr(matrix)
    diameter = 2
    for lo in range(0, n, _BLOCK):
        width = min(_BLOCK, n - lo)
        visited = frontier = _pack_sources(within_two[:, lo:lo + _BLOCK])
        depth = 2
        while True:
            reached = _advance(indptr, cols, frontier) & ~visited
            if not reached.any():
                break
            visited |= reached
            frontier = reached
            depth += 1
        if (visited != _pack_sources(np.ones((1, width), dtype=bool))).any():
            return None
        diameter = max(diameter, depth)
    return diameter


def _csr(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr int64, column indices int32) of a 0/1 matrix, built in row
    blocks so no index array of the whole matrix is made at int64."""
    n = matrix.shape[0]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(matrix.sum(axis=1, dtype=np.int64), out=indptr[1:])
    cols = np.empty(int(indptr[-1]), dtype=np.int32)
    for lo in range(0, n, _CSR_ROWS):
        hi = min(lo + _CSR_ROWS, n)
        cols[indptr[lo]:indptr[hi]] = np.flatnonzero(matrix[lo:hi]) % n
    return indptr, cols


def _pack_sources(bits: np.ndarray) -> np.ndarray:
    """Rows of up to _BLOCK bools as rows of packed uint64 words, bit s of
    the row holding column s."""
    packed = np.zeros((bits.shape[0], _BLOCK // 8), dtype=np.uint8)
    packed[:, : (bits.shape[1] + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(np.uint64)


def _advance(indptr: np.ndarray, cols: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Row v: the OR of frontier[u] over the neighbours u of v.

    Gathers only the CSR entries whose neighbour has a non-zero frontier,
    _GATHER_EDGES at a time, cut at row boundaries.
    """
    n = indptr.size - 1
    out = np.zeros_like(frontier)
    active = frontier.any(axis=1)
    lo = 0
    while lo < n:
        end = int(np.searchsorted(indptr, indptr[lo] + _GATHER_EDGES, side="right")) - 1
        hi = max(end, lo + 1)
        neighbours = cols[indptr[lo]:indptr[hi]]
        kept = np.flatnonzero(active.take(neighbours))
        # Kept entries before each row's first entry: the row's segment start.
        starts = np.searchsorted(kept, indptr[lo:hi + 1] - indptr[lo])
        # reduceat copies one element for an empty segment, so rows with no
        # kept entry are left out, and stay zero.
        rows = np.flatnonzero(starts[1:] > starts[:-1])
        if rows.size:
            gathered = frontier.take(neighbours.take(kept), axis=0)
            out[lo + rows] = np.bitwise_or.reduceat(gathered, starts[rows], axis=0)
        lo = hi
    return out
