"""Canonical indexing, SimpleMag storage, and the classical-graph image."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from magkit.bitstring import BLOCK, BitString
from magkit.core import (
    CompanionTuple,
    SimpleMag,
    coords_from_indices,
    edge_from_rank,
    edge_rank,
    indices_from_coords,
    pairs_from_ranks,
    possible_edge_count,
    ranks_from_pairs,
    vertex_from_index,
    vertex_index,
)
from magkit.errors import (
    ArithmeticOverflowError,
    RangeError,
    SelfLoopError,
    ShapeError,
)
from magkit.randgen import GenSpec, generate


def enumerate_vertices(sizes):
    """Oracle: all coordinate tuples with the first aspect varying fastest."""
    reversed_products = itertools.product(*(range(n) for n in reversed(sizes)))
    return [t[::-1] for t in reversed_products]


def enumerate_pairs(n):
    """Oracle: unordered index pairs in lexicographic order."""
    return list(itertools.combinations(range(n), 2))


def test_vertex_index_examples():
    shape = CompanionTuple((3, 2))
    assert vertex_index(shape, (0, 0)) == 0
    assert vertex_index(shape, (2, 1)) == 5
    # position of (1, 1) under the enumeration oracle
    assert enumerate_vertices((3, 2)).index((1, 1)) == 4
    assert vertex_index(shape, (1, 1)) == 4


def test_vertex_from_index_examples():
    shape = CompanionTuple((3, 2))
    assert vertex_from_index(shape, 0) == (0, 0)
    assert vertex_from_index(shape, 5) == (2, 1)
    oracle = enumerate_vertices((4, 3, 2))
    shape3 = CompanionTuple((4, 3, 2))
    assert vertex_from_index(shape3, 17) == oracle[17]


@pytest.mark.parametrize("sizes", [(1,), (7,), (3, 2), (2, 3, 4), (5, 1, 2), (10, 10)])
def test_vertex_bijection_matches_enumeration(sizes):
    shape = CompanionTuple(sizes)
    oracle = enumerate_vertices(sizes)
    assert len(oracle) == shape.vertex_count
    for idx, coords in enumerate(oracle):
        assert vertex_index(shape, coords) == idx
        assert vertex_from_index(shape, idx) == coords


def test_edge_rank_examples():
    shape = CompanionTuple((4,))
    oracle = enumerate_pairs(4)
    assert oracle.index((0, 1)) == 0
    assert oracle.index((2, 3)) == 5
    assert oracle.index((0, 3)) == 2
    assert edge_rank(shape, (0,), (1,)) == 0
    assert edge_rank(shape, (2,), (3,)) == 5
    assert edge_rank(shape, (0,), (3,)) == 2
    # unordered: swapping endpoints changes nothing
    assert edge_rank(shape, (3,), (0,)) == 2


def test_edge_from_rank_examples():
    shape = CompanionTuple((4,))
    assert edge_from_rank(shape, 0) == ((0,), (1,))
    assert edge_from_rank(shape, 5) == ((2,), (3,))
    shape100 = CompanionTuple((100,))
    a, b = enumerate_pairs(100)[3141]
    assert edge_from_rank(shape100, 3141) == ((a,), (b,))


@pytest.mark.parametrize("sizes", [(2,), (6,), (3, 2), (4, 3, 2), (1, 5)])
def test_edge_bijection_matches_enumeration(sizes):
    shape = CompanionTuple(sizes)
    n = shape.vertex_count
    pairs = enumerate_pairs(n)
    assert len(pairs) == shape.possible_edges
    for rank, (a, b) in enumerate(pairs):
        u = vertex_from_index(shape, a)
        v = vertex_from_index(shape, b)
        assert edge_rank(shape, u, v) == rank
        assert edge_from_rank(shape, rank) == (u, v)


LARGE_N = 10321


@st.composite
def large_order_pairs(draw):
    a = draw(st.integers(0, LARGE_N - 2))
    return a, draw(st.integers(a + 1, LARGE_N - 1))


@settings(max_examples=300, deadline=None)
@given(large_order_pairs())
# triangle-row boundaries are where the closed form is touchiest
@example((0, 1))
@example((1, 2))
@example((LARGE_N // 2, LARGE_N // 2 + 1))
@example((LARGE_N - 2, LARGE_N - 1))
@example((0, LARGE_N - 1))
def test_edge_rank_arithmetic_large_order(pair):
    shape = CompanionTuple((LARGE_N,))
    a, b = pair
    rank = edge_rank(shape, (a,), (b,))
    assert 0 <= rank < shape.possible_edges
    assert edge_from_rank(shape, rank) == ((a,), (b,))
    first = edge_rank(shape, (a,), (a + 1,))
    assert edge_from_rank(shape, first) == ((a,), (a + 1,))
    if a:  # the rank before a row's first is the last of the row above
        assert edge_from_rank(shape, first - 1) == ((a - 1,), (LARGE_N - 1,))


def test_shape_equality_and_hash():
    assert CompanionTuple((3, 2)) == CompanionTuple([3, 2])
    assert CompanionTuple((3, 2)) != CompanionTuple((2, 3))
    assert hash(CompanionTuple((3, 2))) == hash(CompanionTuple((3, 2)))
    assert len({CompanionTuple((4,)), CompanionTuple((4,))}) == 1


def test_vertex_bijection_exhaustive_large():
    shape = CompanionTuple((10, 10, 10, 10))  # N = 10^4
    for index in range(shape.vertex_count):
        assert vertex_index(shape, vertex_from_index(shape, index)) == index


def test_rank_depends_only_on_shape():
    shape = CompanionTuple((4, 2))
    sparse = SimpleMag(shape)
    dense = SimpleMag(shape)
    for rank in range(shape.possible_edges):
        dense.bits.set(rank)
    edge = ((1, 0), (3, 1))
    assert edge_rank(sparse.shape, *edge) == edge_rank(dense.shape, *edge)


def test_possible_edge_count():
    assert possible_edge_count(CompanionTuple((2, 1))) == 1
    assert possible_edge_count(CompanionTuple((3, 2))) == 15
    assert possible_edge_count(CompanionTuple((32, 16))) == 130816


def test_shape_validation():
    with pytest.raises(ShapeError):
        CompanionTuple(())
    with pytest.raises(ShapeError):
        CompanionTuple((3, 0))
    with pytest.raises(ArithmeticOverflowError):
        CompanionTuple((2**40, 2**40))
    with pytest.raises(ShapeError):
        SimpleMag(CompanionTuple((3, 2)), BitString(14))  # the shape needs 15 bits


def test_coordinate_and_range_errors():
    shape = CompanionTuple((3, 2))
    with pytest.raises(ShapeError):
        vertex_index(shape, (3, 0))
    with pytest.raises(ShapeError):
        vertex_index(shape, (0,))
    with pytest.raises(RangeError):
        vertex_from_index(shape, 6)
    with pytest.raises(RangeError):
        edge_from_rank(shape, 15)
    with pytest.raises(RangeError):
        edge_from_rank(shape, -1)
    with pytest.raises(SelfLoopError):
        edge_rank(shape, (1, 1), (1, 1))


def test_set_get_roundtrip():
    g = SimpleMag(CompanionTuple((3, 2)))
    u, v = (0, 1), (2, 0)
    assert not g.has_edge(u, v)
    g.set_edge(u, v)
    assert g.has_edge(u, v)
    assert g.has_edge(v, u)
    g.set_edge(u, v, present=False)
    assert not g.has_edge(u, v)


def test_fresh_mag_is_empty():
    g = SimpleMag(CompanionTuple((4, 2)))
    n = g.shape.vertex_count
    for a, b in enumerate_pairs(n):
        assert not g.has_edge(vertex_from_index(g.shape, a), vertex_from_index(g.shape, b))


def test_complete_mag_degrees():
    shape = CompanionTuple((3, 2))
    g = SimpleMag(shape)
    for rank in range(shape.possible_edges):
        g.bits.set(rank)
    n = shape.vertex_count
    # handshake oracle: count neighbors of each vertex directly
    for a in range(n):
        u = vertex_from_index(shape, a)
        degree = sum(
            g.has_edge(u, vertex_from_index(shape, b)) for b in range(n) if b != a
        )
        assert degree == n - 1


def test_characteristic_string_identity():
    # bit j of the stored string must equal membership of the j-th possible
    # edge under an independent enumeration of all vertex-tuple pairs
    shape = CompanionTuple((3, 2, 2))
    vertices = enumerate_vertices(shape.sizes)
    g = SimpleMag.from_edges(
        shape,
        [
            ((0, 0, 0), (1, 1, 0)),
            ((2, 1, 1), (0, 0, 1)),
            ((1, 0, 0), (1, 0, 1)),
        ],
    )
    members = set()
    for rank in g.present_ranks():
        members.add(frozenset(edge_from_rank(shape, rank)))
    for j, (a, b) in enumerate(itertools.combinations(range(len(vertices)), 2)):
        expected = frozenset((vertices[a], vertices[b])) in members
        assert g.bits.get(j) == expected


def test_to_classical_edges():
    shape = CompanionTuple((3, 2))
    assert SimpleMag(shape).to_classical_edges() == []
    g = SimpleMag.from_edges(shape, [((0, 0), (1, 0))])
    assert g.to_classical_edges() == [(0, 1)]


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(0, CompanionTuple((4, 3)).possible_edges - 1)))
def test_classical_roundtrip_random(ranks):
    shape = CompanionTuple((4, 3))
    g = SimpleMag(shape)
    for rank in ranks:
        g.bits.set(rank)
    classical = g.to_classical_edges()
    assert len(classical) == len(ranks)
    rebuilt = SimpleMag.from_edges(
        shape,
        [
            (vertex_from_index(shape, a), vertex_from_index(shape, b))
            for a, b in classical
        ],
    )
    assert rebuilt == g
    # degree sequence preserved
    degrees = {}
    for a, b in classical:
        degrees[a] = degrees.get(a, 0) + 1
        degrees[b] = degrees.get(b, 0) + 1
    from magkit.topo import degree_profile

    mag_degrees = degree_profile(g)[0]
    assert sorted(degrees.values()) == sorted(d for d in mag_degrees if d)


def test_edges_iterator_order_and_shape_mismatch():
    shape = CompanionTuple((3, 2))
    g = SimpleMag.from_edges(shape, [((2, 1), (0, 0)), ((0, 1), (1, 0))])
    listed = list(g.edges())
    ranks = [edge_rank(shape, u, v) for u, v in listed]
    assert ranks == sorted(ranks)
    for u, v in listed:
        assert vertex_index(shape, u) < vertex_index(shape, v)
    with pytest.raises(ShapeError):
        g.has_edge((0, 0, 0), (1, 0, 0))


# The array kernel against the scalar bijections and the per-edge oracles.

MAX_N = 2**31 - 1


@st.composite
def kernel_cases(draw):
    """A shape of order 1-3 with N <= 2**31 - 1 and ranks at, just before
    and just after row starts, plus the first and last rank."""
    order = draw(st.integers(1, 3))
    sizes = [draw(st.integers(2, MAX_N))]
    for _ in range(order - 1):
        sizes.append(draw(st.integers(1, max(1, MAX_N // math.prod(sizes)))))
    shape = CompanionTuple(sizes)
    n, m = shape.vertex_count, shape.possible_edges
    ranks = [0, m - 1]
    for a in draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=20)):
        start = a * n - a * (a + 1) // 2
        ranks += [r for r in (start - 1, start, start + 1) if 0 <= r < m]
    return shape, ranks


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_kernel_matches_scalar_bijections(case):
    shape, ranks = case
    n = shape.vertex_count
    a, b = pairs_from_ranks(n, np.array(ranks))
    expected = [edge_from_rank(shape, r) for r in ranks]
    assert coords_from_indices(shape, a).tolist() == [list(u) for u, _ in expected]
    assert coords_from_indices(shape, b).tolist() == [list(v) for _, v in expected]
    assert indices_from_coords(shape, coords_from_indices(shape, a)).tolist() == a.tolist()
    assert ranks_from_pairs(n, a, b).tolist() == ranks
    assert ranks == [edge_rank(shape, u, v) for u, v in expected]
    assert expected == [oracles.edge_from_rank(shape, r) for r in ranks]


def test_kernel_rows_at_the_int64_limit():
    # every row start, and its neighbours, of the largest supported N near
    # both ends of the triangle, where the float root is least exact
    n = 2**31
    rows = np.array([0, 1, 2, 3, n // 2 - 1, n // 2, n - 4, n - 3, n - 2], dtype=np.int64)
    starts = rows * n - rows * (rows + 1) // 2
    ranks = np.concatenate((starts - 1, starts, starts + 1))[1:-1]  # within [0, M)
    a, b = pairs_from_ranks(n, ranks)
    assert list(zip(a.tolist(), b.tolist())) == [
        oracles.pair_from_rank(n, int(r)) for r in ranks
    ]
    assert (ranks_from_pairs(n, a, b) == ranks).all()


@pytest.mark.parametrize("sizes", [(1,), (2,), (7,), (5, 3), (4, 3, 2), (1, 6), (130, 1)])
def test_kernel_exhaustive_small(sizes):
    shape = CompanionTuple(sizes)
    ranks = np.arange(shape.possible_edges)
    a, b = pairs_from_ranks(shape.vertex_count, ranks)
    assert list(zip(a.tolist(), b.tolist())) == enumerate_pairs(shape.vertex_count)
    assert (ranks_from_pairs(shape.vertex_count, a, b) == ranks).all()
    idx = np.arange(shape.vertex_count)
    coords = coords_from_indices(shape, idx)
    assert [tuple(c) for c in coords.tolist()] == enumerate_vertices(sizes)
    assert (indices_from_coords(shape, coords) == idx).all()


@pytest.mark.parametrize("sizes,p", [
    ((4, 3), (1, 2)), ((6, 5, 2), (1, 8)), ((23,), (1, 1)), ((9, 9), (0, 1)),
    ((700,), (1, 2)), ((40, 30), (1, 64)),
])
def test_present_edges_match_per_byte_oracle(sizes, p):
    g = generate(GenSpec(CompanionTuple(sizes), p[0], p[1], 5))
    ranks = list(oracles.present_ranks(g))
    assert list(g.present_ranks()) == ranks
    assert list(g.edges()) == oracles.edges(g)
    assert g.to_classical_edges() == [
        oracles.pair_from_rank(g.shape.vertex_count, r) for r in ranks
    ]


def test_rank_blocks_are_bounded_and_ascending():
    # a complete MAG whose payload spans several windows of BLOCK bytes,
    # each window holding more than BLOCK present ranks
    shape = CompanionTuple((1100,))
    g = SimpleMag(shape, BitString.from_array(np.ones(shape.possible_edges, np.uint8)))
    blocks = list(g.rank_blocks())
    assert all(0 < block.size <= BLOCK for block in blocks)
    assert (np.concatenate(blocks) == np.arange(shape.possible_edges)).all()
    assert g.to_classical_edges() == enumerate_pairs(shape.vertex_count)
    assert list(SimpleMag(shape).rank_blocks()) == []


def test_scalar_errors_match_oracle():
    shape = CompanionTuple((3, 2))
    for coords in [(3, 0), (0, 2), (-1, 0), (5, 9), (0,), (0, 0, 0)]:
        with pytest.raises(ShapeError) as new:
            vertex_index(shape, coords)
        with pytest.raises(ShapeError) as old:
            oracles.vertex_index(shape, coords)
        assert str(new.value) == str(old.value)
    with pytest.raises(SelfLoopError) as info:
        edge_rank(shape, [1, 1], [1, 1])
    assert str(info.value) == "self-loop at composite vertex (1, 1)"
