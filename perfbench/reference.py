"""Computations the benchmark checks magkit's outputs against.

Nothing here imports magkit. Everything follows the formats and orderings
that magkit's README fixes:

* `.mcs`: magic ``MCS1``, LEB128 varints p and n_1..n_p, then one presence
  bit per possible edge, packed MSB-first with zero padding;
* pairs a < b of composite-vertex indices are ranked lexicographically,
  rank(a, b) = a*N - a(a+1)/2 + (b-a-1);
* composite vertices are indexed mixed radix, first aspect fastest.

Ranks are decoded here by a binary search over row starts, not by magkit's
square-root formula, and every matrix is built from this module's own
unpacking of the payload.
"""

from __future__ import annotations

import numpy as np

MCS_MAGIC = b"MCS1"
MSC_MAGIC = b"MSC1"


def varint(value: int) -> bytes:
    out = bytearray()
    while True:
        byte, value = value & 0x7F, value >> 7
        out.append(byte | (0x80 if value else 0))
        if not value:
            return bytes(out)


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    value = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def pack_mcs(sizes, payload: bytes) -> bytes:
    """An .mcs stream from aspect sizes and an already packed payload."""
    return MCS_MAGIC + varint(len(sizes)) + b"".join(varint(n) for n in sizes) + payload


def position_count(sizes) -> int:
    n = int(np.prod(sizes))
    return n * (n - 1) // 2


def unpack_mcs(data: bytes) -> tuple[tuple[int, ...], np.ndarray]:
    """(aspect sizes, presence bits as uint8) of an .mcs stream.

    Raises ValueError when the stream does not have the exact length and
    zero padding that its header implies.
    """
    if data[:4] != MCS_MAGIC:
        raise ValueError("bad .mcs magic")
    order, pos = read_varint(data, 4)
    sizes = []
    for _ in range(order):
        n, pos = read_varint(data, pos)
        sizes.append(n)
    m = position_count(sizes)
    payload = np.frombuffer(data, dtype=np.uint8, offset=pos)
    if payload.size != (m + 7) // 8:
        raise ValueError("payload length does not match the header")
    bits = np.unpackbits(payload)
    if bits[m:].any():
        raise ValueError("nonzero padding bits")
    return tuple(sizes), bits[:m]


def row_starts(n: int) -> np.ndarray:
    a = np.arange(n, dtype=np.int64)
    return a * n - a * (a + 1) // 2


def pair_rank(n: int, a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return a * n - a * (a + 1) // 2 + (b - a - 1)


def decode_ranks(n: int, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank -> (a, b), a < b, by binary search over the row starts."""
    starts = row_starts(n)
    a = np.searchsorted(starts, ranks, side="right") - 1
    return a, ranks - starts[a] + a + 1


def coords(sizes, idx: np.ndarray) -> np.ndarray:
    """Mixed-radix coordinates (first aspect fastest), one row per index."""
    out = np.empty((idx.size, len(sizes)), dtype=np.int64)
    rest = np.asarray(idx, dtype=np.int64)
    for k, n in enumerate(sizes):
        out[:, k] = rest % n
        rest = rest // n
    return out


def present_pairs(sizes, bits) -> tuple[np.ndarray, np.ndarray]:
    n = int(np.prod(sizes))
    return decode_ranks(n, np.flatnonzero(bits).astype(np.int64))


def adjacency(sizes, bits) -> np.ndarray:
    n = int(np.prod(sizes))
    a, b = present_pairs(sizes, bits)
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[a, b] = 1
    adj[b, a] = 1
    return adj


def diameter(adj: np.ndarray, common: np.ndarray):
    """Diameter read off A or A^2 when that covers every pair; otherwise
    all-pairs BFS through scipy.sparse.csgraph."""
    n = adj.shape[0]
    off = ~np.eye(n, dtype=bool)
    if adj[off].all():
        return 1 if n > 1 else 0
    if ((adj > 0) | (common > 0))[off].all():
        return 2
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    dist = shortest_path(csr_matrix(adj), unweighted=True, directed=False)
    if np.isinf(dist).any():
        return "disconnected"
    return int(dist.max())


def analyze_report(data: bytes, aspect: int) -> dict:
    """The topology report `magkit analyze --aspect <aspect>` should print
    for the .mcs stream `data`, computed from its own unpacking."""
    sizes, bits = unpack_mcs(data)
    n = int(np.prod(sizes))
    strides = np.cumprod((1,) + sizes[:-1])
    adj = adjacency(sizes, bits)
    af = adj.astype(np.float32)
    common = af @ af
    degrees = adj.sum(axis=1, dtype=np.int64)
    iu = np.triu_indices(n, 1)
    pair_common = common[iu].astype(np.int64)
    a, b = present_pairs(sizes, bits)
    idx = np.arange(n, dtype=np.int64)
    coord = [(idx // strides[k]) % sizes[k] for k in range(len(sizes))]
    report = {
        "shape": list(sizes),
        "edgeCount": int(bits.sum(dtype=np.int64)),
        "degrees": degrees.tolist(),
        "maxDegreeDeviation": float(np.abs(degrees - (n - 1) / 2).max()),
        "diameter": diameter(adj, common),
        "minCommonNeighbors": int(pair_common.min()),
        "maxCommonNeighbors": int(pair_common.max()),
        "sequentiallyCoupled": None,
        "snapshotLike": None,
        "interdimensionalCensus": {
            str(k + 1): int((np.abs(coord[k][a] - coord[k][b]) >= 2).sum())
            for k in range(1, len(sizes))
        },
    }
    if len(sizes) == 2:
        n_v, n_t = sizes
        grid = idx.reshape(n_t, n_v)  # grid[t, u] = index of (u, t)
        consecutive = adj[grid[:-1], grid[1:]].all()
        far = any(adj[grid[:-d], grid[d:]].any() for d in range(2, n_t))
        report["sequentiallyCoupled"] = bool(consecutive and not far)
        report["snapshotLike"] = bool((coord[1][a] == coord[1][b]).all())
    # A pair whose aspect gap is >= 3 is reachable as the check demands iff
    # it is adjacent or has a common neighbour: a common neighbour w cannot
    # be within 1 of both endpoints, so one edge of a-w-b is non-sequential.
    c = coord[aspect - 1]
    failing = ((c[None, :] - c[:, None]) >= 3) & (adj == 0) & (common == 0)
    fa, fb = np.nonzero(failing)
    first = np.lexsort((fb, fa, c[fb], c[fa]))[:10]  # magkit's scan order
    ends = zip(coords(sizes, fa[first]).tolist(), coords(sizes, fb[first]).tolist())
    report["nonSequentialReachability"] = {
        "aspect": aspect,
        "verdict": not fa.size,
        "failingPairCount": int(fa.size),
        "failingPairs": [list(pair) for pair in ends],
    }
    return report


def spatial_ranks(n_v: int, n_t: int) -> np.ndarray:
    """Ranks of all same-instant pairs, in .msc block order."""
    i, j = np.triu_indices(n_v, 1)
    base = (np.arange(n_t, dtype=np.int64) * n_v)[:, None]
    return pair_rank(n_v * n_t, base + i, base + j).ravel()


def coupling_ranks(n_v: int, n_t: int) -> np.ndarray:
    """Ranks of all sequential couplings {(u, t), (u, t + 1)}."""
    a = np.arange(n_v * (n_t - 1), dtype=np.int64)
    return pair_rank(n_v * n_t, a, a + n_v)


def msc_length(n_v: int, n_t: int) -> int:
    """Byte length of an .msc stream from its header fields."""
    block_bits = n_t * (n_v * n_v - n_v) // 2
    return 4 + len(varint(n_v)) + len(varint(n_t)) + 1 + (block_bits + 7) // 8


def unpack_msc(data: bytes) -> tuple[int, int, int, np.ndarray]:
    """(nV, nT, flag byte, block bits) of an .msc stream."""
    if data[:4] != MSC_MAGIC:
        raise ValueError("bad .msc magic")
    n_v, pos = read_varint(data, 4)
    n_t, pos = read_varint(data, pos)
    flags = data[pos]
    block_bits = n_t * (n_v * n_v - n_v) // 2
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=pos + 1))
    return n_v, n_t, flags, bits[:block_bits]


def parse_magt(text: str) -> tuple[tuple[int, ...], np.ndarray]:
    """(aspect sizes, one row of 2p coordinates per edge line) of a .magt
    text without comments, as magkit writes it."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError(".magt text does not end with a newline")
    header = lines[0].split()
    if header[0] != "mag" or int(header[1]) != len(header) - 2:
        raise ValueError("bad .magt header")
    sizes = tuple(int(t) for t in header[2:])
    width = 2 * len(sizes) + 1
    tokens = np.array(" ".join(lines[1:-1]).split()).reshape(-1, width)
    if (tokens[:, 0] != "e").any() or len(tokens) != len(lines) - 2:
        raise ValueError("bad .magt edge line")
    return sizes, tokens[:, 1:].astype(np.int64)


def magt_rows(sizes, bits) -> np.ndarray:
    """Edge rows a .magt file of this MAG holds: smaller index first, in
    rank order."""
    a, b = present_pairs(sizes, bits)
    return np.hstack([coords(sizes, a), coords(sizes, b)])
