"""Topology analyzers against brute-force oracles on small graphs."""

import json
import math
import sys
import threading
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from magkit.bitstring import BitString
import magkit
from magkit import snapshot, topo
from magkit.core import CompanionTuple, SimpleMag, ranks_from_pairs, vertex_from_index
from magkit.errors import ArgumentError, ShapeError
from magkit.randgen import GenSpec, generate
from magkit.snapshot import (
    SnapshotPayload,
    coupling_positions,
    decode_snapshot,
    encode_snapshot,
    is_spatial,
)
from magkit.topo import (
    Adjacency,
    adjacency_rows,
    common_neighbor_count,
    common_neighbor_extremes,
    common_neighbor_matrix,
    composite_diameter,
    degree_profile,
    dense_adjacency,
    is_non_sequential_interdimensional,
    is_sequentially_coupled,
    is_snapshot_like,
    non_sequential_census,
    topo_report,
    verify_non_sequential_reachability,
)


def complete_mag(sizes):
    shape = CompanionTuple(sizes)
    g = SimpleMag(shape)
    for rank in range(shape.possible_edges):
        g.bits.set(rank)
    return g


def random_mag(sizes, seed, num=1, den=2):
    return generate(GenSpec(CompanionTuple(sizes), num, den, seed))


def bfs_distances_oracle(g):
    """Plain dict/set BFS, independent of the bitset implementation."""
    n = g.shape.vertex_count
    adjacency = {a: set() for a in range(n)}
    for a, b in g.to_classical_edges():
        adjacency[a].add(b)
        adjacency[b].add(a)
    dist = {}
    for source in range(n):
        seen = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adjacency[v]:
                    if w not in seen:
                        seen[w] = seen[v] + 1
                        nxt.append(w)
            frontier = nxt
        dist[source] = seen
    return dist


def diameter_oracle(g):
    n = g.shape.vertex_count
    dist = bfs_distances_oracle(g)
    best = 0
    for source in range(n):
        if len(dist[source]) < n:
            return None
        best = max(best, max(dist[source].values()))
    return best


def test_adjacency_rows_match_dense():
    g = random_mag((5, 3), 21)
    rows = adjacency_rows(g)
    dense = dense_adjacency(g)
    n = g.shape.vertex_count
    for a in range(n):
        for b in range(n):
            assert ((rows[a] >> b) & 1) == dense[a, b]
    assert (dense == dense.T).all()
    assert dense.diagonal().sum() == 0


DENSE_ADJACENCY_CASES = {
    "order 1": lambda: random_mag((11,), 1),
    "order 2": lambda: random_mag((5, 3), 2),
    "order 3": lambda: random_mag((3, 4, 2), 3),
    "N = 1": lambda: SimpleMag(CompanionTuple((1,))),
    "N = 2": lambda: complete_mag((2,)),
    "empty": lambda: SimpleMag(CompanionTuple((6, 4))),
    "complete": lambda: complete_mag((6, 4)),
    "coupled TVG": lambda: coupled_tvg((9, 5), 4),
    "N = 63": lambda: random_mag((7, 9), 5, 1, 3),
}


@pytest.mark.parametrize("name", sorted(DENSE_ADJACENCY_CASES))
def test_dense_adjacency_matches_the_triangle_mask_build(name):
    g = DENSE_ADJACENCY_CASES[name]()
    adj = dense_adjacency(g)
    expected = oracles.dense_adjacency(g)
    assert adj.dtype == expected.dtype and np.array_equal(adj, expected)


def test_dense_adjacency_writes_each_byte_once():
    # N = 2048: A is 4 MiB and the unpacked string 2 MiB, so 7 MiB leaves
    # no room for any other N x N array.
    g = random_mag((128, 16), 7)
    tracemalloc.start()
    try:
        adj = dense_adjacency(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert adj.sum(dtype=np.int64) == 2 * g.edge_count()


def test_dense_adjacency_takes_its_row_starts_in_one_call(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return ranks_from_pairs(*args)

    monkeypatch.setattr(topo, "ranks_from_pairs", counting)
    dense_adjacency(random_mag((128, 16), 7))
    assert len(calls) == 1


def test_degree_profile_edge_cases():
    empty = SimpleMag(CompanionTuple((4, 2)))
    degrees, deviation = degree_profile(empty)
    assert degrees == [0] * 8
    assert deviation == 3.5
    comp = complete_mag((4, 2))
    degrees, deviation = degree_profile(comp)
    assert degrees == [7] * 8
    assert deviation == 3.5


def test_degree_handshake_random():
    for seed in range(5):
        g = random_mag((6, 4), seed)
        degrees, _ = degree_profile(g)
        assert sum(degrees) == 2 * g.edge_count()


def test_diameter_against_oracle():
    assert composite_diameter(complete_mag((3, 2))) == 1
    assert composite_diameter(SimpleMag(CompanionTuple((3, 2)))) is None
    assert composite_diameter(SimpleMag(CompanionTuple((1,)))) == 0
    for seed in range(12):
        g = random_mag((4, 2), seed, 1, 4)
        assert composite_diameter(g) == diameter_oracle(g)


def test_diameter_monotone_under_edge_addition():
    rng = np.random.default_rng(3)
    g = random_mag((4, 3), 5, 1, 3)
    previous = composite_diameter(g)
    absent = [r for r in range(g.shape.possible_edges) if not g.bits.get(r)]
    rng.shuffle(absent)
    for rank in absent[:30]:
        g.bits.set(int(rank))
        current = composite_diameter(g)
        prev_val = math.inf if previous is None else previous
        cur_val = math.inf if current is None else current
        assert cur_val <= prev_val
        previous = current


def test_common_neighbors_against_set_oracle():
    g = random_mag((4, 3), 31)
    n = g.shape.vertex_count
    neighbor_sets = {a: set() for a in range(n)}
    for a, b in g.to_classical_edges():
        neighbor_sets[a].add(b)
        neighbor_sets[b].add(a)
    degrees, _ = degree_profile(g)
    counts = common_neighbor_matrix(g)
    for a in range(n):
        for b in range(a + 1, n):
            u = vertex_from_index(g.shape, a)
            v = vertex_from_index(g.shape, b)
            expected = len(neighbor_sets[a] & neighbor_sets[b])
            assert common_neighbor_count(g, u, v) == expected
            assert counts[a, b] == expected
            assert expected <= min(degrees[a], degrees[b])


def test_common_neighbors_extremes_and_errors():
    comp = complete_mag((3, 2))
    assert common_neighbor_extremes(comp) == (4, 4)
    empty = SimpleMag(CompanionTuple((3, 2)))
    assert common_neighbor_extremes(empty) == (0, 0)
    assert common_neighbor_extremes(SimpleMag(CompanionTuple((1,)))) is None
    with pytest.raises(ArgumentError):
        common_neighbor_count(comp, (1, 1), (1, 1))


def test_common_neighbor_count_reads_two_rows():
    # N = 8192: the N x N matrix alone would be 64 MiB.
    g = random_mag((512, 16), 4, 1, 64)
    u, v = (3, 0), (500, 15)
    tracemalloc.start()
    try:
        count = common_neighbor_count(g, u, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"
    others = (vertex_from_index(g.shape, x) for x in range(g.shape.vertex_count))
    assert count == sum(
        all(g.bits.get(oracles.edge_rank(g.shape, c, w)) for c in (u, v))
        for w in others if w not in (u, v)
    )


def test_common_neighbor_union_bound_band():
    # Union-bound-consistent version of the all-pairs concentration claim:
    # at 6 sigma the expected number of violating pairs is ~1e-3 per run.
    g = random_mag((16, 16), 424242)
    n = g.shape.vertex_count
    counts = common_neighbor_matrix(g)
    iu = np.triu_indices(n, 1)
    deviation = np.abs(counts[iu] - (n - 2) / 4)
    assert deviation.max() <= 6 * math.sqrt((n - 2) * 3 / 16)


def test_sequential_coupling_verdicts():
    coupled = decode_snapshot(SnapshotPayload(3, 4, True, BitString(12)))
    assert is_sequentially_coupled(coupled) == (True, None)

    empty = SimpleMag(CompanionTuple((3, 4)))
    ok, violation = is_sequentially_coupled(empty)
    assert not ok and violation[0] == "missing-coupling"

    bad = coupled.copy()
    bad.set_edge((1, 0), (1, 2))
    ok, violation = is_sequentially_coupled(bad)
    assert not ok and violation == ("non-sequential-coupling", ((1, 0), (1, 2)))

    single_instant = SimpleMag(CompanionTuple((3, 1)))
    assert is_sequentially_coupled(single_instant)[0]

    with pytest.raises(ShapeError):
        is_sequentially_coupled(SimpleMag(CompanionTuple((3,))))


def test_random_tvg_not_sequentially_coupled():
    for seed in range(10):
        g = random_mag((16, 16), seed)
        assert not is_sequentially_coupled(g)[0]
        assert not is_snapshot_like(g)


def test_snapshot_like_flags():
    spatial = generate(GenSpec(CompanionTuple((5, 4)), 1, 2, 2, spatial_only=True))
    assert is_snapshot_like(spatial)
    with_couplings = spatial.copy()
    for rank in coupling_positions(spatial.shape):
        with_couplings.bits.set(int(rank))
    assert not is_snapshot_like(with_couplings)
    assert is_snapshot_like(with_couplings, implied_couplings=True)
    transtemporal = spatial.copy()
    transtemporal.set_edge((0, 0), (1, 3))
    assert not is_snapshot_like(transtemporal)
    assert not is_snapshot_like(transtemporal, implied_couplings=True)


def test_non_sequential_edge_predicate():
    assert not is_non_sequential_interdimensional((0, 3), (5, 3), 2)
    assert not is_non_sequential_interdimensional((0, 3), (5, 4), 2)
    assert is_non_sequential_interdimensional((0, 1), (5, 4), 2)
    assert is_non_sequential_interdimensional((0, 1, 0), (5, 4, 0), 2)
    assert not is_non_sequential_interdimensional((0, 1, 0), (5, 4, 0), 3)
    with pytest.raises(ArgumentError):
        is_non_sequential_interdimensional((0, 1), (5, 4), 1)
    with pytest.raises(ArgumentError):
        is_non_sequential_interdimensional((0, 1), (5, 4), 3)
    with pytest.raises(ShapeError):
        is_non_sequential_interdimensional((0, 1), (5, 4, 0), 2)


def test_reachability_complete_and_spatial():
    comp = complete_mag((2, 6))
    verdict, failures = verify_non_sequential_reachability(comp, 2)
    assert verdict and not failures

    # sequentially coupled spatial-only TVG: no non-sequential edge exists,
    # so every qualifying pair fails
    spatial = generate(GenSpec(CompanionTuple((3, 6)), 1, 1, 0, spatial_only=True))
    for rank in coupling_positions(spatial.shape):
        spatial.bits.set(int(rank))
    verdict, failures = verify_non_sequential_reachability(spatial, 2)
    assert not verdict
    qualifying = 3 * 3 * sum(1 for i in range(6) for j in range(i + 3, 6))
    assert len(failures) == qualifying


def test_reachability_vacuous_when_aspect_small():
    g = SimpleMag(CompanionTuple((4, 3)))
    verdict, failures = verify_non_sequential_reachability(g, 2)
    assert verdict and not failures


def test_topo_report_checks_the_aspect_before_any_adjacency(monkeypatch):
    def refuse(g):
        raise AssertionError("adjacency built before the aspect was checked")

    monkeypatch.setattr(topo, "dense_adjacency", refuse)
    with pytest.raises(ArgumentError, match=r"aspect 3 out of range \[2, 2\]"):
        topo_report(random_mag((4, 3), 1), 3)
    with pytest.raises(ArgumentError, match=r"aspect 1 out of range"):
        topo_report(random_mag((4, 3), 1), 1)
    with pytest.raises(ShapeError, match="needs order >= 2"):
        topo_report(random_mag((5,), 1), 2)


def test_reachability_random():
    for seed in range(3):
        g = random_mag((16, 16), seed)
        verdict, failures = verify_non_sequential_reachability(g, 2)
        assert verdict, failures[:3]


def test_report_stable_and_complete():
    g = random_mag((4, 3), 8)
    report_a = topo_report(g, reachability_aspect=2)
    report_b = topo_report(g.copy(), reachability_aspect=2)
    assert json.dumps(report_a, sort_keys=True) == json.dumps(report_b, sort_keys=True)
    for key in (
        "degrees",
        "maxDegreeDeviation",
        "diameter",
        "minCommonNeighbors",
        "maxCommonNeighbors",
        "sequentiallyCoupled",
        "snapshotLike",
        "interdimensionalCensus",
        "nonSequentialReachability",
    ):
        assert key in report_a
    order1 = topo_report(SimpleMag(CompanionTuple((5,))))
    assert order1["sequentiallyCoupled"] is None
    assert order1["snapshotLike"] is None
    assert order1["interdimensionalCensus"] == {}
    assert order1["diameter"] == "disconnected"


def test_report_reuses_a_prebuilt_adjacency_and_its_square_pass(monkeypatch):
    g = random_mag((16, 8), 5)
    adj = Adjacency(g)
    adj.extremes  # runs and caches the A·A pass
    calls = []

    def counting(name):
        original = getattr(topo, name)
        return lambda *args: calls.append(name) or original(*args)

    for name in ("dense_adjacency", "_square_blocks"):
        monkeypatch.setattr(topo, name, counting(name))
    report = topo_report(adj, 2)
    assert calls == []
    assert json.dumps(report, sort_keys=True) == json.dumps(topo_report(g, 2), sort_keys=True)
    assert "dense_adjacency" in calls and "_square_blocks" in calls


# Differential tests: brute-force oracles kept beside the vectorized analyzers.


def neighbor_sets(g):
    n = g.shape.vertex_count
    sets = {a: set() for a in range(n)}
    for a, b in g.to_classical_edges():
        sets[a].add(b)
        sets[b].add(a)
    return sets


def reachability_oracle(g, aspect):
    """The four-nested-loop definition: every pair with coordinate gap >= 3
    needs a direct edge or a common neighbor >= 2 away from i or j."""
    shape = g.shape
    n = shape.vertex_count
    coords = [vertex_from_index(shape, a)[aspect - 1] for a in range(n)]
    n_k = shape.sizes[aspect - 1]
    groups = [[a for a in range(n) if coords[a] == c] for c in range(n_k)]
    neighbors = neighbor_sets(g)
    failures = []
    for i in range(n_k):
        for j in range(i + 3, n_k):
            for a in groups[i]:
                for b in groups[j]:
                    if b in neighbors[a]:
                        continue
                    if not any(
                        abs(coords[w] - i) >= 2 or abs(coords[w] - j) >= 2
                        for w in neighbors[a] & neighbors[b]
                    ):
                        failures.append(
                            (vertex_from_index(shape, a), vertex_from_index(shape, b))
                        )
    return not failures, failures


def coupled_tvg(sizes, seed):
    spatial = generate(GenSpec(CompanionTuple(sizes), 1, 2, seed, spatial_only=True))
    return decode_snapshot(encode_snapshot(spatial, implied_couplings=True))


REACHABILITY_CASES = [
    (random_mag(sizes, seed, 1, den), aspect)
    for sizes in [(4, 6), (3, 7), (3, 5, 4), (2, 4, 5)]
    for aspect in range(2, len(sizes) + 1)
    for den in (8, 4, 2)
    for seed in range(2)
] + [(coupled_tvg(sizes, 3), 2) for sizes in [(3, 6), (4, 7), (2, 9)]]


@pytest.mark.parametrize("g, aspect", REACHABILITY_CASES)
def test_reachability_against_loop_oracle(g, aspect):
    verdict, failures = verify_non_sequential_reachability(g, aspect)
    expected_verdict, expected = reachability_oracle(g, aspect)
    assert verdict == expected_verdict
    assert len(failures) == len(expected)
    assert list(failures) == expected
    assert failures[:10] == expected[:10]
    if expected:
        assert failures[-1] == expected[-1]
        assert failures[len(expected) // 2] == expected[len(expected) // 2]
        with pytest.raises(IndexError):
            failures[len(expected)]


@pytest.mark.parametrize("sizes", [(64, 16), (32, 24), (1, 512), (2, 256)])
def test_reachability_holds_no_n_by_n_array(sizes):
    # A ∨ A² is built before tracing starts; the check counts each far row's
    # failures in place and keeps no position per failing pair, so it and its
    # first ten items stay far below one N x N bool mask, and nothing grows
    # with n_k² either, where n_k is nearly all N.
    adj = Adjacency(coupled_tvg(sizes, 3))
    adj.within_two
    n = adj.shape.vertex_count
    tracemalloc.start()
    try:
        _, failures = verify_non_sequential_reachability(adj, 2)
        failures[:10]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(failures) > 0
    assert peak <= n * n / 8, f"{peak / n**2:.2f} N²"


@pytest.mark.parametrize("sizes, aspect", [
    ((5, 7), 2), ((1, 7), 2), ((5, 1), 2), ((3, 5, 4), 2), ((3, 1, 4), 3), ((1, 6, 1), 2),
])
def test_reachability_leaves_the_cached_mask_unwritten(sizes, aspect):
    # Where the coordinate-major view of A ∨ A² needs no copy (every order-2
    # shape, and shapes whose other aspects have size 1), the check still
    # writes nothing through it: it counts and reads the view in place.
    adj = Adjacency(random_mag(sizes, 4, 1, 4))
    before = adj.within_two.copy()
    verdict, failures = verify_non_sequential_reachability(adj, aspect)
    assert np.array_equal(adj.within_two, before)
    assert (verdict, list(failures)) == reachability_oracle(adj, aspect)


FAILING_PAIR_CASES = [
    ((3, 7, 4), 2), ((3, 7, 4), 3), ((2, 3, 9), 3), ((3, 1, 4), 3), ((1, 6, 1), 2),
    ((6, 1, 7), 3), ((5, 9), 2), ((1, 12), 2), ((5, 1), 2), ((4, 2), 2),
]


@pytest.mark.parametrize("g", [
    random_mag((3, 4, 3), 55, 1, 3),
    *(random_mag(sizes, 5) for sizes in dict.fromkeys(sizes for sizes, _ in FAILING_PAIR_CASES)),
    random_mag((2, 3, 4, 5), 6, 1, 3),
    coupled_tvg((6, 12), 3),
    random_mag((1, 512), 3),
    random_mag((2, 256), 3),
], ids=lambda g: "x".join(map(str, g.shape.sizes)))
def test_census_against_edge_scan(g):
    # Every aspect, n_k <= 2, size-1 aspects and aspects of nearly all N included.
    expected = dict.fromkeys(range(2, g.shape.order + 1), 0)
    for u, v in g.edges():
        for aspect in expected:
            if abs(u[aspect - 1] - v[aspect - 1]) >= 2:
                expected[aspect] += 1
    assert non_sequential_census(g) == expected


@pytest.mark.parametrize("sizes", [(64, 16), (32, 24), (1, 512), (2, 256)])
def test_census_holds_no_n_by_n_array(sizes):
    # A is built before tracing starts; the census counts its block diagonals
    # in place, so nothing grows with n_k either, where n_k is nearly all N.
    adj = Adjacency(random_mag(sizes, 3))
    n = adj.shape.vertex_count
    tracemalloc.start()
    try:
        census = non_sequential_census(adj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert census[2] > 0
    assert peak <= n * n / 8, f"{peak / n**2:.3f} N²"


def joined(sizes, blocks):
    """An order-2 MAG whose only edges join every vertex of instant c to
    every vertex of instant d, for each (c, d) in blocks."""
    n = sizes[0]
    edges = [((x, c), (y, d)) for c, d in blocks for x in range(n) for y in range(n)]
    return SimpleMag.from_edges(CompanionTuple(sizes), edges)


@pytest.mark.parametrize("g, aspect", [
    (random_mag(sizes, 5, 1, 8), aspect) for sizes, aspect in FAILING_PAIR_CASES
] + [
    (coupled_tvg((6, 12), 3), 2),
    # Row 1 has no failing pair, between rows 0 and 2 that have, and nor
    # do rows 4 to 6; in row 0, block (0, 5) has none, between blocks that have.
    (joined((2, 10), [(1, d) for d in range(4, 10)] + [(0, 5)]), 2),
    # Row 0's blocks (0, 3) to (0, 7) have no failing pair; its last, (0, 8), has.
    (joined((2, 9), [(0, d) for d in range(3, 8)] + [(1, 8)]), 2),
    # n_k <= 3: no block is far enough, so there are no items.
    (random_mag((4, 3), 5, 1, 8), 2), (random_mag((5, 2), 5, 1, 8), 2),
    (random_mag((3, 3, 4), 5, 1, 8), 2),
])
def test_failing_pairs_index_and_slice_as_the_negated_mask(g, aspect):
    # Items, slices and reversal cross block and row boundaries; zipping the
    # sequence with its reverse swaps the kept row and block on nearly every
    # read.
    _, failures = verify_non_sequential_reachability(g, aspect)
    expected = oracles.failing_pairs(g, aspect)
    assert len(failures) == len(expected)
    assert list(failures) == expected
    assert failures[::7] == expected[::7]
    assert failures[-3:] == expected[-3:]
    assert failures[5:2:-1] == expected[5:2:-1]
    assert list(reversed(failures)) == expected[::-1]
    assert list(zip(failures, reversed(failures))) == list(zip(expected, expected[::-1]))
    with pytest.raises(IndexError):
        failures[len(failures)]


def record_coordinate_reads(monkeypatch):
    """The (c, d) keys read through every `_by_coordinate` view, in order:
    a row read when d is a slice, a block read when d is an integer."""
    reads = []

    class Recorded(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, tuple) and len(key) == 6:
                reads.append((key[1], key[4]))
            return super().__getitem__(key)

    by_coordinate = topo._by_coordinate
    monkeypatch.setattr(
        topo, "_by_coordinate", lambda m, s, a: by_coordinate(m.view(Recorded), s, a)
    )
    return reads


def test_counting_failing_pairs_reads_no_block(monkeypatch):
    # The count takes each far row whole; no block's unset bits are read
    # until an item is.
    reads = record_coordinate_reads(monkeypatch)
    _, failures = verify_non_sequential_reachability(random_mag((6, 12), 5, 1, 8), 2)
    assert len(failures) > 0
    assert reads == [(c, slice(c + 3, None)) for c in range(12)]


def test_iterating_failing_pairs_reads_each_block_once(monkeypatch):
    # Failing pairs of a coupled TVG (6,12) fill every block with c_b - c_a
    # >= 3; iteration takes each row's per-block counts once, in row order,
    # and each block's unset bits once, in block order.
    reads = record_coordinate_reads(monkeypatch)
    _, failures = verify_non_sequential_reachability(coupled_tvg((6, 12), 3), 2)
    reads.clear()
    assert len(list(failures)) == 6 * 6 * sum(range(10))
    rows = [(c, d) for c, d in reads if isinstance(d, slice)]
    assert rows == [(c, slice(c + 3, None)) for c in range(9)]
    blocks = [(c, d) for c, d in reads if not isinstance(d, slice)]
    assert blocks == [(c, d) for c in range(12) for d in range(c + 3, 12)]


def test_failing_pairs_read_from_many_threads():
    # Threads read one sequence in opposite directions, so each read may find
    # the kept block swapped by another thread since its last read. The blocks
    # of a sparse random MAG differ, so a stale block reads wrong pairs.
    g = random_mag((6, 12), 5, 1, 8)
    _, failures = verify_non_sequential_reachability(g, 2)
    expected = oracles.failing_pairs(g, 2)
    results = {}

    def read(t):
        results[t] = list(reversed(failures)) if t % 2 else list(failures)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {t: expected[::-1] if t % 2 else expected for t in range(6)}


def tvg_with_an_empty_instant():
    """A coupled (64,4) TVG placed in (64,5): instant 4 has no edges, and its
    rows 256..319 are the whole second 256-row block of A."""
    return SimpleMag.from_edges(CompanionTuple((64, 5)), coupled_tvg((64, 4), 5).edges())


SQUARE_PASS_MAGS = {
    "coupled tvg (32,12)": coupled_tvg((32, 12), 1),
    "uncoupled tvg (32,12)": generate(
        GenSpec(CompanionTuple((32, 12)), 1, 2, 1, spatial_only=True)
    ),
    "coupled tvg (100,3)": coupled_tvg((100, 3), 2),
    "dense (20,15)": random_mag((20, 15), 3),
    "sparse (20,15)": random_mag((20, 15), 4, 1, 64),
    "empty instant (64,5)": tvg_with_an_empty_instant(),
    "order 1 (300,)": random_mag((300,), 5),
    "order 3 (10,6,5)": random_mag((10, 6, 5), 6, 1, 4),
    "N = 1": random_mag((1,), 7),
    "N = 2": complete_mag((2,)),
}


@pytest.mark.parametrize("name", sorted(SQUARE_PASS_MAGS))
def test_square_pass_matches_the_unblocked_product(name):
    g = SQUARE_PASS_MAGS[name]
    within, extremes, counts = oracles.square_pass(g)
    adj = Adjacency(g)
    assert np.array_equal(adj.within_two, within)
    assert adj.extremes == extremes
    matrix = common_neighbor_matrix(g)
    assert matrix.dtype == np.int32
    assert np.array_equal(matrix, counts)
    assert np.array_equal(np.diagonal(matrix), adj.matrix.sum(axis=1))


def test_square_pass_multiplies_only_each_blocks_column_span(monkeypatch):
    # A coupled TVG's A is block-tridiagonal: at (64,16), N = 1024, a block
    # of 256 rows holds 4 instants, whose edges reach at most 6 instants.
    products = []

    class Recorded(np.ndarray):
        def __matmul__(self, other):
            products.append(self.shape)
            return np.asarray(self) @ np.asarray(other)

    square_blocks = topo._square_blocks
    monkeypatch.setattr(topo, "_square_blocks", lambda m: square_blocks(m.view(Recorded)))
    Adjacency(coupled_tvg((64, 16), 3)).extremes
    n = 1024
    assert sum(rows for rows, _ in products) == n
    assert sum(rows * span for rows, span in products) <= n * n // 2
    products.clear()
    assert Adjacency(tvg_with_an_empty_instant()).extremes[0] == 0
    assert products[-1] == (64, 0)


def mag_from_graph(sizes, graph):
    g = SimpleMag(CompanionTuple(sizes))
    for a, b in graph.edges():
        g.set_edge(vertex_from_index(g.shape, a), vertex_from_index(g.shape, b))
    return g


def two_cliques():
    graph = nx.complete_graph(4)
    graph.add_edges_from(nx.complete_graph(range(4, 8)).edges())
    return graph


GRAPH_FAMILIES = {
    "complete": ((4, 2), nx.complete_graph(8)),
    "empty": ((4, 2), nx.empty_graph(8)),
    "disconnected": ((4, 2), two_cliques()),
    "star": ((3, 3), nx.star_graph(8)),
    "dense": ((8, 4), nx.gnp_random_graph(32, 0.5, seed=2)),
    "cycle": ((5, 2), nx.cycle_graph(10)),
    "path": ((4, 3), nx.path_graph(12)),
    "single": ((1,), nx.empty_graph(1)),
}


@pytest.mark.parametrize("name", sorted(GRAPH_FAMILIES))
def test_diameter_and_common_neighbors_against_networkx(name):
    sizes, graph = GRAPH_FAMILIES[name]
    g = mag_from_graph(sizes, graph)
    n = g.shape.vertex_count
    expected = nx.diameter(graph) if nx.is_connected(graph) else None
    counts = [
        len(list(nx.common_neighbors(graph, a, b)))
        for a in range(n)
        for b in range(a + 1, n)
    ]
    extremes = (min(counts), max(counts)) if counts else None
    matrix = common_neighbor_matrix(g)
    for form in (g, Adjacency(g)):
        assert composite_diameter(form) == expected
        assert common_neighbor_extremes(form) == extremes
    assert matrix[np.triu_indices(n, 1)].tolist() == counts
    assert matrix.diagonal().tolist() == [d for _, d in sorted(graph.degree())]


def test_adjacency_is_the_mag_it_was_built_from():
    g = random_mag((4, 3), 12)
    adj = Adjacency(g)
    assert isinstance(adj, SimpleMag)
    assert adj.shape is g.shape and adj.bits is g.bits
    assert adj == g and g == adj
    assert repr(adj) == f"Adjacency(shape=(4, 3), edges={g.edge_count()})"
    assert repr(g) == f"SimpleMag(shape=(4, 3), edges={g.edge_count()})"
    built = Adjacency.from_edges(g.shape, g.edges())
    assert type(built) is Adjacency
    assert built == g and built == SimpleMag.from_edges(g.shape, g.edges())
    assert np.array_equal(built.matrix, dense_adjacency(g))


def test_order2_verdicts_belong_to_snapshot():
    for name in ("is_sequentially_coupled", "is_snapshot_like"):
        assert getattr(topo, name) is getattr(snapshot, name)
        assert getattr(magkit, name) is getattr(snapshot, name)


def analyzer_outcomes(form):
    """What every topo analyzer returns, or raises, on one argument."""
    shape = form.shape
    u = vertex_from_index(shape, 0)
    v = vertex_from_index(shape, shape.vertex_count - 1)
    degrees, deviation = degree_profile(form)
    outcomes = {
        "adjacency_rows": adjacency_rows(form),
        "dense_adjacency": dense_adjacency(form).tolist(),
        "degree_profile": (degrees, deviation),
        "composite_diameter": composite_diameter(form),
        "common_neighbor_count": common_neighbor_count(form, u, v),
        "common_neighbor_matrix": common_neighbor_matrix(form).tolist(),
        "common_neighbor_extremes": common_neighbor_extremes(form),
        "non_sequential_census": non_sequential_census(form),
        "topo_report": json.dumps(
            topo_report(form, 2 if shape.order > 1 else None), sort_keys=True
        ),
    }
    for aspect in range(2, shape.order + 1):
        verdict, failures = verify_non_sequential_reachability(form, aspect)
        outcomes[f"reachability {aspect}"] = (verdict, list(failures))
    verdicts = {
        "is_sequentially_coupled": lambda: is_sequentially_coupled(form),
        "is_snapshot_like": lambda: is_snapshot_like(form),
        "is_snapshot_like implied": lambda: is_snapshot_like(form, True),
    }
    for name, verdict in verdicts.items():
        try:
            outcomes[name] = verdict()
        except ShapeError as exc:
            outcomes[name] = str(exc)
    return outcomes


ANALYZER_MAGS = [
    random_mag((7,), 1),
    random_mag((4, 3), 2, 1, 4),
    coupled_tvg((3, 6), 5),
    random_mag((3, 2, 3), 3, 1, 3),
]


@pytest.mark.parametrize("g", ANALYZER_MAGS, ids=lambda g: str(g.shape.sizes))
def test_every_analyzer_reads_an_adjacency_as_its_mag(g):
    expected = analyzer_outcomes(g)
    assert analyzer_outcomes(Adjacency(g)) == expected
    if g.shape.order == 2:
        assert expected["is_sequentially_coupled"] == sequential_coupling_oracle(g)
    else:
        assert expected["is_sequentially_coupled"].startswith("expected a second-order")


def sequential_coupling_oracle(g):
    """The has_edge loop over (node, i, j)."""
    n_vertices, n_times = g.shape.sizes
    for node in range(n_vertices):
        for i in range(n_times):
            for j in range(i + 1, n_times):
                present = g.has_edge((node, i), (node, j))
                if j == i + 1 and not present:
                    return False, ("missing-coupling", ((node, i), (node, j)))
                if j > i + 1 and present:
                    return False, ("non-sequential-coupling", ((node, i), (node, j)))
    return True, None


def coupling_variants():
    rng = np.random.default_rng(9)
    for seed, sizes in enumerate([(3, 4), (5, 6), (4, 1), (1, 5), (6, 7)]):
        yield random_mag(sizes, seed, 1, 8)
        coupled = coupled_tvg(sizes, seed)
        yield coupled
        n_vertices, n_times = sizes
        for _ in range(3):
            node = int(rng.integers(n_vertices))
            if n_times > 1:
                i = int(rng.integers(n_times - 1))
                cleared = coupled.copy()
                cleared.set_edge((node, i), (node, i + 1), False)
                yield cleared
            if n_times > 2:
                i = int(rng.integers(n_times - 2))
                j = int(rng.integers(i + 2, n_times))
                extra = coupled.copy()
                extra.set_edge((node, i), (node, j))
                yield extra


def test_sequential_coupling_against_loop_oracle():
    for g in coupling_variants():
        assert is_sequentially_coupled(g) == sequential_coupling_oracle(g)
        assert is_sequentially_coupled(Adjacency(g)) == sequential_coupling_oracle(g)


def report_oracle(g, aspect):
    """topo_report rebuilt from the oracles and networkx."""
    shape = g.shape
    n = shape.vertex_count
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(g.to_classical_edges())
    degrees = [d for _, d in sorted(graph.degree())]
    counts = [
        len(list(nx.common_neighbors(graph, a, b)))
        for a in range(n)
        for b in range(a + 1, n)
    ]
    census = {str(k): 0 for k in range(2, shape.order + 1)}
    for u, v in g.edges():
        for k in range(2, shape.order + 1):
            census[str(k)] += abs(u[k - 1] - v[k - 1]) >= 2
    verdict, failures = reachability_oracle(g, aspect)
    return {
        "shape": list(shape.sizes),
        "edgeCount": graph.number_of_edges(),
        "degrees": degrees,
        "maxDegreeDeviation": max(abs(d - (n - 1) / 2) for d in degrees),
        "diameter": nx.diameter(graph) if nx.is_connected(graph) else "disconnected",
        "minCommonNeighbors": min(counts),
        "maxCommonNeighbors": max(counts),
        "sequentiallyCoupled": sequential_coupling_oracle(g)[0],
        "snapshotLike": all(is_spatial(u, v) for u, v in g.edges()),
        "interdimensionalCensus": census,
        "nonSequentialReachability": {
            "aspect": aspect,
            "verdict": verdict,
            "failingPairCount": len(failures),
            "failingPairs": [[list(u), list(v)] for u, v in failures[:10]],
        },
    }


@pytest.mark.parametrize("seed", range(3))
def test_report_against_oracle_report(seed):
    for g in (random_mag((4, 6), seed, 1, 4), random_mag((5, 5), seed), coupled_tvg((3, 7), seed)):
        expected = json.dumps(report_oracle(g, 2), sort_keys=True)
        assert json.dumps(topo_report(g, reachability_aspect=2), sort_keys=True) == expected


# The multi-source packed-word BFS against the one-source bitset BFS oracle
# and networkx, at sizes on both sides of the 64-bit word and the 256-source
# block.

BFS_SIZES = (63, 64, 65, 255, 256, 257, 300)


def graph_mag(n, pairs):
    """An order-1 MAG on vertices 0..n-1 with the given index pairs."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    g = SimpleMag(CompanionTuple((n,)))
    g.bits.set_many(ranks_from_pairs(n, pairs.min(axis=1), pairs.max(axis=1)))
    return g


def path_pairs(vertices):
    return list(zip(vertices[:-1], vertices[1:]))


def shuffled_path(n, seed):
    return path_pairs(np.random.default_rng(seed).permutation(n))


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def cycle_isolating_middle(n):
    return [(a, b) for a, b in cycle(n) if n // 2 not in (a, b)]


def two_deep_components(n, joined, seed=0):
    order = np.random.default_rng(seed).permutation(n)
    half = n // 2
    left, right = order[:half], order[half:]
    pairs = path_pairs(left) + path_pairs(right)
    if joined:
        pairs.append((left[half // 2], right[right.size // 2]))
    return pairs


BFS_GRAPHS = {
    "path": lambda n: shuffled_path(n, n),
    "cycle": cycle,
    "cycle-isolated": cycle_isolating_middle,
    "two-joined": lambda n: two_deep_components(n, True, n),
    "two-apart": lambda n: two_deep_components(n, False, n),
}


def expected_diameter(g):
    graph = nx.Graph()
    graph.add_nodes_from(range(g.shape.vertex_count))
    graph.add_edges_from(g.to_classical_edges())
    return nx.diameter(graph) if nx.is_connected(graph) else None


@pytest.mark.parametrize("n", BFS_SIZES)
@pytest.mark.parametrize("family", sorted(BFS_GRAPHS))
def test_diameter_of_deep_graphs(family, n):
    g = graph_mag(n, BFS_GRAPHS[family](n))
    expected = expected_diameter(g)
    assert oracles.composite_diameter(g) == expected
    assert composite_diameter(g) == expected
    assert composite_diameter(Adjacency(g)) == expected
    if family == "path":
        assert expected == n - 1


@pytest.mark.parametrize("sizes", [(4, 6), (8, 9), (3, 7), (16, 16), (20, 15), (32, 16)])
def test_diameter_of_coupled_tvgs(sizes):
    for seed in range(2):
        g = coupled_tvg(sizes, seed)
        expected = oracles.composite_diameter(g)
        assert expected is not None and expected >= 3
        assert composite_diameter(g) == expected == expected_diameter(g)


@st.composite
def sparse_graphs(draw):
    """A random forest or spanning tree plus a few random edges."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(n)
    parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    tree = [(order[i + 1], order[p]) for i, p in enumerate(parents)]
    kept = rng.random(n - 1) < draw(st.sampled_from([1.0, 0.99, 0.9]))
    pairs = [pair for pair, keep in zip(tree, kept) if keep]
    extra = rng.integers(0, n, (draw(st.integers(0, n // 4)), 2))
    pairs += [(a, b) for a, b in extra if a != b]
    return graph_mag(n, pairs)


@settings(max_examples=60, deadline=None)
@given(sparse_graphs())
def test_diameter_of_sparse_random_graphs(g):
    assert composite_diameter(g) == oracles.composite_diameter(g)


def test_diameter_gather_memory_is_chunked():
    # G(N, 0.6) with one vertex left hanging off a single neighbour:
    # diameter 3, about two fifths of the vertices on every source's depth-2
    # frontier, so an unchunked gather of frontier words per CSR entry
    # would take about 32 MiB on its own.
    n = 2048
    rng = np.random.default_rng(5)
    upper = np.triu(rng.random((n, n)) < 0.6, 1)
    upper[0] = False
    upper[:, 0] = False
    upper[0, 1] = True
    g = SimpleMag(CompanionTuple((n,)), BitString.from_array(upper[np.triu_indices(n, 1)]))
    assert g.edge_count() >= n * n // 4
    del upper
    adj = Adjacency(g)
    tracemalloc.start()
    try:
        assert composite_diameter(adj) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
