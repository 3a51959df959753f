"""Topology analyzers against brute-force oracles on small graphs."""

import json
import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from magkit.bitstring import BitString
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


def test_census_against_edge_scan():
    g = random_mag((3, 4, 3), 55, 1, 3)
    expected = {2: 0, 3: 0}
    for u, v in g.edges():
        for aspect in (2, 3):
            if abs(u[aspect - 1] - v[aspect - 1]) >= 2:
                expected[aspect] += 1
    assert non_sequential_census(g) == expected


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
