"""Per-edge reference implementations, kept as oracles for the array paths.

These are the straightforward one-edge-at-a-time versions of the rank
bijections, the .magt codec, interval contraction, the coupling checks and
the snapshot-likeness test, and the one-source-at-a-time bitset BFS
diameter; the snapshot codec and spatial-only generation through an array
of one byte per possible edge; and the all-pairs sequential-coupling gather.
Tests compare the library against them; nothing in the library imports
this module.
"""

from math import isqrt

import numpy as np

from magkit.bitstring import BitString
from magkit.core import CompanionTuple, SimpleMag, ranks_from_pairs
from magkit.errors import (
    DuplicateEdgeError,
    MagError,
    NotIntervalRestrictedError,
    NotSnapshotError,
    ParseError,
    SelfLoopError,
    ShapeError,
)
from magkit.randgen import SEED_BITS, WORD_CHUNK
from magkit.snapshot import SnapshotPayload


def vertex_index(shape, coords):
    coords = tuple(int(c) for c in coords)
    if len(coords) != shape.order:
        raise ShapeError(
            f"composite vertex has {len(coords)} coordinates, shape expects {shape.order}"
        )
    for c, n in zip(coords, shape.sizes):
        if not 0 <= c < n:
            raise ShapeError(f"coordinate {c} out of range [0, {n}) in {coords}")
    return sum(c * stride for c, stride in zip(coords, shape.strides))


def vertex_from_index(shape, index):
    coords = []
    for n in shape.sizes:
        coords.append(index % n)
        index //= n
    return tuple(coords)


def row_start(n, a):
    return a * n - a * (a + 1) // 2


def pair_from_rank(n, rank):
    """isqrt estimate of the row, then walk to the row that holds rank."""
    disc = (2 * n - 1) ** 2 - 8 * rank
    a = (2 * n - 1 - isqrt(disc)) // 2
    while a > 0 and row_start(n, a) > rank:
        a -= 1
    while row_start(n, a + 1) <= rank:
        a += 1
    return a, rank - row_start(n, a) + a + 1


def edge_rank(shape, u, v):
    a = vertex_index(shape, u)
    b = vertex_index(shape, v)
    if a == b:
        raise SelfLoopError(f"self-loop at composite vertex {tuple(u)}")
    if a > b:
        a, b = b, a
    return row_start(shape.vertex_count, a) + (b - a - 1)


def edge_from_rank(shape, rank):
    a, b = pair_from_rank(shape.vertex_count, rank)
    return vertex_from_index(shape, a), vertex_from_index(shape, b)


def spatial_positions(shape):
    """Ranks of the spatial pairs, block by block, pairs lexicographic."""
    n_vertices, n_times = shape.sizes
    return np.array([
        edge_rank(shape, (u, t), (v, t))
        for t in range(n_times)
        for u in range(n_vertices)
        for v in range(u + 1, n_vertices)
    ], dtype=np.int64)


def coupling_positions(shape):
    n_vertices, n_times = shape.sizes
    return np.array([
        edge_rank(shape, (u, t), (u, t + 1))
        for t in range(n_times - 1)
        for u in range(n_vertices)
    ], dtype=np.int64)


def present_ranks(g):
    """Per-byte scan of the payload."""
    for byte_index, byte in enumerate(g.bits.payload):
        for bit in range(8):
            if byte & (0x80 >> bit):
                yield byte_index * 8 + bit


def edges(g):
    return [edge_from_rank(g.shape, rank) for rank in present_ranks(g)]


def write_magt(g):
    lines = ["mag " + " ".join(str(n) for n in (g.shape.order, *g.shape.sizes))]
    for u, v in edges(g):
        lines.append("e " + " ".join(str(c) for c in (*u, *v)))
    return "\n".join(lines) + "\n"


def _ints(tokens, lineno):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError("expected integers", line=lineno) from None


def read_magt(text):
    g = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if g is None:
            if tokens[0] != "mag":
                raise ParseError(f"expected 'mag' header, got {tokens[0]!r}", line=lineno)
            fields = _ints(tokens[1:], lineno)
            if not fields:
                raise ParseError("header is missing the order", line=lineno)
            order, sizes = fields[0], fields[1:]
            if len(sizes) != order:
                raise ParseError(
                    f"header declares order {order} but lists {len(sizes)} sizes",
                    line=lineno,
                )
            try:
                g = SimpleMag(CompanionTuple(sizes))
            except MagError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            continue
        if tokens[0] != "e":
            raise ParseError(f"expected 'e' line, got {tokens[0]!r}", line=lineno)
        coords = _ints(tokens[1:], lineno)
        p = g.shape.order
        if len(coords) != 2 * p:
            raise ParseError(
                f"edge line has {len(coords)} coordinates, expected {2 * p}",
                line=lineno,
            )
        try:
            rank = edge_rank(g.shape, coords[:p], coords[p:])
        except MagError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if g.bits.get(rank):
            u, v = edge_from_rank(g.shape, rank)
            raise DuplicateEdgeError(f"edge {u} -- {v} repeated", line=lineno)
        g.bits.set(rank)
    if g is None:
        raise ParseError("no 'mag' header found")
    return g


def contract_intervals(g, interval_map):
    n_vertices, n_times = g.shape.sizes
    if interval_map.pairs[-1][1] >= n_times:
        raise ShapeError("interval map reaches past the MAG")
    index_of = {pair: k for k, pair in enumerate(interval_map.pairs)}
    out = SimpleMag(CompanionTuple((n_vertices, len(interval_map))))
    for u, v in edges(g):
        k = index_of.get((u[1], v[1]))
        if k is None:
            raise NotIntervalRestrictedError(
                f"edge {u} -- {v} does not span a mapped interval", edge=(u, v)
            )
        if u[0] == v[0]:
            raise NotIntervalRestrictedError(
                f"coupling edge {u} -- {v} has no spatial image", edge=(u, v)
            )
        if u[0] > v[0]:
            raise NotIntervalRestrictedError(
                f"edge {u} -- {v} is not canonically oriented", edge=(u, v)
            )
        out.bits.set(edge_rank(out.shape, (u[0], k), (v[0], k)))
    return out


def expand_intervals(g, interval_map, time_count):
    n_vertices, _ = g.shape.sizes
    out = SimpleMag(CompanionTuple((n_vertices, time_count)))
    for u, v in edges(g):
        if u[1] != v[1]:
            raise NotSnapshotError(f"edge {u} -- {v} is not spatial", edge=(u, v))
        t_i, t_j = interval_map.pairs[u[1]]
        out.bits.set(edge_rank(out.shape, (u[0], t_i), (v[0], t_j)))
    return out


def check_multiplex_couplings(g):
    """(diagonal, categorical) by an edge loop and a has_edge loop."""
    n_vertices, n_layers = g.shape.sizes
    diagonal = all(u[1] == v[1] or u[0] == v[0] for u, v in edges(g))
    categorical = all(
        g.bits.get(edge_rank(g.shape, (node, alpha), (node, beta)))
        for node in range(n_vertices)
        for alpha in range(n_layers)
        for beta in range(alpha + 1, n_layers)
    )
    return diagonal, categorical


def first_non_spatial(g, implied_couplings=False):
    """First present edge outside an M-length mask of allowed positions."""
    allowed = np.zeros(g.shape.possible_edges, dtype=bool)
    allowed[spatial_positions(g.shape)] = True
    if implied_couplings:
        allowed[coupling_positions(g.shape)] = True
    bad = g.bits.to_array().astype(bool) & ~allowed
    if not bad.any():
        return None
    return edge_from_rank(g.shape, int(bad.argmax()))


def composite_diameter(g):
    """Max eccentricity by one Python-int bitset BFS per source; None if
    disconnected."""
    n = g.shape.vertex_count
    rows = [0] * n
    for a, b in g.to_classical_edges():
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    full = (1 << n) - 1
    diameter = 0
    for source in range(n):
        visited = 1 << source
        frontier = visited
        depth = 0
        while frontier:
            reach = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                reach |= rows[v]
                f &= f - 1
            frontier = reach & ~visited
            if frontier:
                visited |= frontier
                depth += 1
        if visited != full:
            return None
        diameter = max(diameter, depth)
    return diameter


def generate(spec):
    """All M presence bits as a uint8 array, then an M-byte spatial mask."""
    m = spec.shape.possible_edges
    if spec.p_num == 0 or m == 0:
        bits = np.zeros(m, dtype=np.uint8)
    elif spec.p_num == spec.p_den:
        bits = np.ones(m, dtype=np.uint8)
    else:
        threshold = np.uint64((spec.p_num << SEED_BITS) // spec.p_den)
        bits = np.empty(m, dtype=np.uint8)
        words = np.random.Philox(key=spec.seed)
        for lo in range(0, m, WORD_CHUNK):
            hi = min(lo + WORD_CHUNK, m)
            np.less(words.random_raw(hi - lo), threshold, out=bits[lo:hi])
    if spec.spatial_only:
        spatial = np.zeros(m, dtype=np.uint8)
        positions = spatial_positions(spec.shape)
        spatial[positions] = bits[positions]
        bits = spatial
    return SimpleMag(spec.shape, BitString.from_array(bits))


def encode_snapshot(g, implied_couplings=False):
    """Spatial bits gathered from the unpacked string; non-spatial dropped."""
    n_vertices, n_times = g.shape.sizes
    bits = g.bits.to_array()
    blocks = BitString.from_array(bits[spatial_positions(g.shape)])
    return SnapshotPayload(n_vertices, n_times, implied_couplings, blocks)


def decode_snapshot(payload):
    shape = payload.shape()
    bits = np.zeros(shape.possible_edges, dtype=np.uint8)
    bits[spatial_positions(shape)] = payload.blocks.to_array()
    if payload.couplings:
        bits[coupling_positions(shape)] = 1
    return SimpleMag(shape, BitString.from_array(bits))


def is_sequentially_coupled(g):
    """One gather of the same-node ranks of every pair of instants."""
    n_vertices, n_times = g.shape.sizes
    i, j = np.triu_indices(n_times, 1)
    node = np.arange(n_vertices, dtype=np.int64)[:, None]
    a = (node + i * n_vertices).ravel()
    b = (node + j * n_vertices).ravel()
    ranks = ranks_from_pairs(g.shape.vertex_count, a, b)
    sequential = np.broadcast_to(j == i + 1, (n_vertices, i.size)).ravel()
    violations = np.flatnonzero(g.bits.take(ranks) != sequential)
    if violations.size == 0:
        return True, None
    k = int(violations[0])
    u = (k // i.size, int(i[k % i.size]))
    v = (u[0], int(j[k % i.size]))
    kind = "missing-coupling" if sequential[k] else "non-sequential-coupling"
    return False, (kind, (u, v))


def categorical_by_layer(g):
    """One gather per layer of its same-node pairs with every later layer."""
    n_vertices, n_layers = g.shape.sizes
    node = np.arange(n_vertices, dtype=np.int64)[:, None]
    for alpha in range(n_layers - 1):
        beta = np.arange(alpha + 1, n_layers)
        same_node = ranks_from_pairs(
            g.shape.vertex_count, node + alpha * n_vertices, node + beta * n_vertices
        )
        if not g.bits.take(same_node.ravel()).all():
            return False
    return True
