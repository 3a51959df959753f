"""Snapshot codec, .msc format, interval contraction, multiplex checks."""

import itertools
import tracemalloc

import numpy as np
import pytest

import oracles
from magkit import snapshot
from magkit.bitstring import BLOCK, BitString
from magkit.core import CompanionTuple, SimpleMag, edge_from_rank
from magkit.errors import (
    FormatError,
    MagError,
    NotIntervalRestrictedError,
    NotSnapshotError,
    ShapeError,
    TrailingDataError,
    TruncatedError,
)
from magkit.formats import write_mcs
from magkit.randgen import GenSpec, generate
from magkit.snapshot import (
    CouplingCheck,
    IntervalMap,
    SnapshotPayload,
    check_multiplex_couplings,
    contract_intervals,
    coupling_positions,
    decode_snapshot,
    encode_snapshot,
    expand_intervals,
    first_stray_rank,
    is_spatial,
    msc_header_bits,
    read_msc,
    spatial_edge_count,
    spatial_positions,
    write_msc,
)
from magkit.topo import is_sequentially_coupled, is_snapshot_like


def spatial_mag(sizes, seed):
    return generate(GenSpec(CompanionTuple(sizes), 1, 2, seed, spatial_only=True))


def test_is_spatial():
    assert is_spatial((0, 3), (5, 3))
    assert not is_spatial((0, 3), (0, 4))
    with pytest.raises(ShapeError):
        is_spatial((0, 3, 1), (5, 3, 1))


def test_spatial_census_against_predicate():
    shape = CompanionTuple((4, 3))
    assert spatial_edge_count(shape) == 18  # 3 * (16 - 4) / 2
    positions = spatial_positions(shape)
    assert positions.size == 18
    # every listed position is spatial, every unlisted one is not
    listed = set(int(r) for r in positions)
    for rank in range(shape.possible_edges):
        u, v = edge_from_rank(shape, rank)
        assert is_spatial(u, v) == (rank in listed)


def test_spatial_positions_block_order():
    # payload bit k of block alpha must be the local pair of rank k - alpha*mV
    shape = CompanionTuple((3, 2))
    positions = spatial_positions(shape)
    local_pairs = list(itertools.combinations(range(3), 2))
    for k, rank in enumerate(positions):
        block, local = divmod(k, len(local_pairs))
        i, j = local_pairs[local]
        u, v = edge_from_rank(shape, int(rank))
        assert u == (i, block) and v == (j, block)


def test_spatial_tvg_classical_image_is_block_diagonal():
    # same-instant edges land inside diagonal blocks of the order-1 image
    g = spatial_mag((6, 4), 3)
    assert g.edge_count() > 0
    for a, b in g.to_classical_edges():
        assert a // 6 == b // 6


def test_encode_empty():
    g = SimpleMag(CompanionTuple((3, 2)))
    payload = encode_snapshot(g)
    assert payload.blocks.bit_length == 6
    assert payload.blocks.count() == 0


def test_encode_single_edge_block_placement():
    g = SimpleMag.from_edges(CompanionTuple((3, 2)), [((0, 1), (2, 1))])
    payload = encode_snapshot(g)
    local_pairs = list(itertools.combinations(range(3), 2))
    expected_bit = 1 * len(local_pairs) + local_pairs.index((0, 2))
    assert [payload.blocks.get(k) for k in range(6)] == [
        k == expected_bit for k in range(6)
    ]


def test_encode_block_size_formula():
    g = spatial_mag((32, 16), 5)
    payload = encode_snapshot(g)
    assert payload.blocks.bit_length == 16 * 496 == 7936


def test_decode_empty_and_couplings():
    empty = SnapshotPayload(3, 3, False, BitString(9))
    assert decode_snapshot(empty).edge_count() == 0
    coupled = SnapshotPayload(3, 3, True, BitString(9))
    g = decode_snapshot(coupled)
    expected = {((u, i), (u, i + 1)) for u in range(3) for i in range(2)}
    assert set(g.edges()) == expected


def naive_encode_blocks(g):
    """Slow oracle: walk every rank, keep spatial bits in (instant, pair) order."""
    n_vertices, n_times = g.shape.sizes
    by_block = {t: [] for t in range(n_times)}
    for rank in range(g.shape.possible_edges):
        u, v = edge_from_rank(g.shape, rank)
        if is_spatial(u, v):
            by_block[u[1]].append(g.bits.get(rank))
    bits = []
    for t in range(n_times):
        bits.extend(by_block[t])
    return bits


@pytest.mark.parametrize("sizes", [(2, 2), (5, 3), (4, 6), (1, 4), (7, 1)])
def test_encoder_matches_naive_oracle(sizes):
    g = spatial_mag(sizes, 77)
    payload = encode_snapshot(g)
    expected = naive_encode_blocks(g)
    assert payload.blocks.bit_length == len(expected)
    assert [payload.blocks.get(k) for k in range(len(expected))] == expected


def test_roundtrip_random_spatial():
    for seed in range(30):
        g = spatial_mag((7, 5), seed)
        assert decode_snapshot(encode_snapshot(g)) == g


def test_roundtrip_with_couplings():
    base = spatial_mag((4, 3), 9)
    for rank in coupling_positions(base.shape):
        base.bits.set(int(rank))
    payload = encode_snapshot(base, implied_couplings=True)
    assert decode_snapshot(payload) == base


def test_encode_rejects_non_spatial():
    g = spatial_mag((4, 3), 2)
    g.set_edge((0, 0), (1, 2))
    with pytest.raises(NotSnapshotError) as info:
        encode_snapshot(g)
    assert info.value.edge == ((0, 0), (1, 2))
    # with implied couplings, couplings pass but this edge still fails
    with pytest.raises(NotSnapshotError):
        encode_snapshot(g, implied_couplings=True)


def test_strip_projection_idempotent():
    g = generate(GenSpec(CompanionTuple((5, 4)), 1, 2, 3))
    stripped = decode_snapshot(encode_snapshot(g, strip_non_spatial=True))
    spatial_only = SimpleMag(g.shape)
    for rank in spatial_positions(g.shape):
        if g.bits.get(int(rank)):
            spatial_only.bits.set(int(rank))
    assert stripped == spatial_only
    again = decode_snapshot(encode_snapshot(stripped))
    assert again == stripped


def test_msc_empty_bytes():
    payload = SnapshotPayload(2, 1, False, BitString(1))
    assert write_msc(payload) == b"MSC1" + bytes([2, 1, 0, 0])


def test_msc_roundtrip():
    for seed in range(10):
        g = spatial_mag((6, 4), seed)
        payload = encode_snapshot(g, implied_couplings=bool(seed % 2))
        parsed = read_msc(write_msc(payload))
        assert parsed == payload
        assert decode_snapshot(parsed) == decode_snapshot(payload)


def test_encode_of_decode_identity():
    # encode(decode(payload)) == payload on the payload side as well
    rng = np.random.default_rng(12)
    block_bits = 3 * (4 * 4 - 4) // 2
    bits = (rng.random(block_bits) < 0.5).astype(np.uint8)
    payload = SnapshotPayload(4, 3, False, BitString.from_array(bits))
    assert encode_snapshot(decode_snapshot(payload)) == payload


def test_msc_header_overhead():
    assert msc_header_bits(1024, 1024) == 8 * (4 + 2 + 2 + 1) == 72
    assert msc_header_bits(1024, 1024) <= 40 + 16 * 20
    data = write_msc(encode_snapshot(spatial_mag((9, 3), 0)))
    block_bits = 3 * (81 - 9) // 2
    assert 8 * len(data) - 8 * ((block_bits + 7) // 8) == msc_header_bits(9, 3)


def test_msc_length_bound():
    for n_vertices, n_times in [(2, 2), (3, 5), (17, 9), (32, 32)]:
        g = spatial_mag((n_vertices, n_times), 1)
        bits = 8 * len(write_msc(encode_snapshot(g)))
        bound = (
            n_times * (n_vertices**2 - n_vertices) // 2
            + 40
            + 16 * int(np.ceil(np.log2(n_vertices * n_times)))
        )
        assert bits <= bound


def test_msc_malformed():
    good = write_msc(encode_snapshot(spatial_mag((4, 2), 0)))
    with pytest.raises(FormatError):
        read_msc(b"XSC1" + good[4:])
    with pytest.raises(TruncatedError):
        read_msc(good[:-1])
    with pytest.raises(TrailingDataError):
        read_msc(good + b"\x00")
    bad_flags = bytearray(good)
    bad_flags[6] |= 0x02
    with pytest.raises(FormatError):
        read_msc(bytes(bad_flags))
    with pytest.raises(FormatError):
        read_msc(b"MSC1" + bytes([0, 1, 0]))  # zero vertices


def test_interval_map_validation():
    IntervalMap(((0, 2), (2, 3), (3, 7)))
    with pytest.raises(ShapeError):
        IntervalMap(())
    with pytest.raises(ShapeError):
        IntervalMap(((1, 2),))  # must start at 0
    with pytest.raises(ShapeError):
        IntervalMap(((0, 2), (3, 4)))  # chain break
    with pytest.raises(ShapeError):
        IntervalMap(((0, 0),))  # not increasing


def test_contract_empty():
    g = SimpleMag(CompanionTuple((4, 6)))
    imap = IntervalMap(((0, 2), (2, 5)))
    out = contract_intervals(g, imap)
    assert out.shape.sizes == (4, 2)
    assert out.edge_count() == 0


def test_contract_successor_map():
    # f = successor on |T| = 4: intervals (0,1), (1,2), (2,3)
    imap = IntervalMap(((0, 1), (1, 2), (2, 3)))
    g = SimpleMag.from_edges(CompanionTuple((3, 4)), [((0, 0), (2, 1))])
    out = contract_intervals(g, imap)
    assert set(out.edges()) == {((0, 0), (2, 0))}


def test_contract_expand_roundtrip():
    rng = np.random.default_rng(8)
    imap = IntervalMap(((0, 1), (1, 3), (3, 4), (4, 6)))
    shape = CompanionTuple((5, 7))
    g = SimpleMag(shape)
    for i, j in imap.pairs:
        for u in range(5):
            for v in range(u + 1, 5):
                if rng.random() < 0.4:
                    g.set_edge((u, i), (v, j))
    contracted = contract_intervals(g, imap)
    assert contracted.shape.sizes == (5, 4)
    assert expand_intervals(contracted, imap, 7) == g


def test_contract_rejects_unmapped_and_coupling_edges():
    imap = IntervalMap(((0, 2),))
    shape = CompanionTuple((3, 4))
    stray = SimpleMag.from_edges(shape, [((0, 1), (1, 2))])
    with pytest.raises(NotIntervalRestrictedError):
        contract_intervals(stray, imap)
    spatial = SimpleMag.from_edges(shape, [((0, 1), (1, 1))])
    with pytest.raises(NotIntervalRestrictedError):
        contract_intervals(spatial, imap)
    coupling = SimpleMag.from_edges(shape, [((1, 0), (1, 2))])
    with pytest.raises(NotIntervalRestrictedError):
        contract_intervals(coupling, imap)
    mirrored = SimpleMag.from_edges(shape, [((2, 0), (1, 2))])
    with pytest.raises(NotIntervalRestrictedError):
        contract_intervals(mirrored, imap)


def test_expand_validation():
    imap = IntervalMap(((0, 2), (2, 3)))
    contracted = SimpleMag(CompanionTuple((3, 2)))
    with pytest.raises(ShapeError):
        expand_intervals(SimpleMag(CompanionTuple((3, 5))), imap, 4)  # block count
    with pytest.raises(ShapeError):
        expand_intervals(contracted, imap, 3)  # map reaches instant 3
    not_spatial = SimpleMag.from_edges(CompanionTuple((3, 2)), [((0, 0), (1, 1))])
    with pytest.raises(NotSnapshotError):
        expand_intervals(not_spatial, imap, 4)


def test_multiplex_checks():
    empty2 = SimpleMag(CompanionTuple((3, 2)))
    verdict = check_multiplex_couplings(empty2)
    assert verdict.diagonal and not verdict.categorical
    assert verdict.potentially_layer_connected

    coupled = decode_snapshot(SnapshotPayload(3, 2, True, BitString(6)))
    verdict = check_multiplex_couplings(coupled)
    assert verdict.diagonal and verdict.categorical

    # sequential couplings are categorical only when |layers| = 2
    coupled3 = decode_snapshot(SnapshotPayload(3, 3, True, BitString(9)))
    verdict = check_multiplex_couplings(coupled3)
    assert verdict.diagonal and not verdict.categorical

    offdiag = SimpleMag.from_edges(CompanionTuple((2, 2)), [((0, 0), (1, 1))])
    assert not check_multiplex_couplings(offdiag).diagonal

    single_layer = SimpleMag(CompanionTuple((3, 1)))
    assert check_multiplex_couplings(single_layer).categorical


# The array paths against the per-edge oracles.


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except MagError as exc:
        return type(exc), str(exc), getattr(exc, "edge", None)


def interval_mags(seed):
    """(MAG, map) pairs over (6, 9): interval-restricted edges, then the
    same with one stray edge each of every kind the contraction rejects."""
    rng = np.random.default_rng(seed)
    imap = IntervalMap(((0, 1), (1, 4), (4, 5), (5, 8)))
    shape = CompanionTuple((6, 9))
    base = SimpleMag(shape)
    for i, j in imap.pairs:
        for u in range(6):
            for v in range(u + 1, 6):
                if rng.random() < 0.5:
                    base.set_edge((u, i), (v, j))
    yield base, imap
    strays = [((0, 1), (1, 2)), ((2, 3), (4, 3)), ((3, 1), (3, 4)), ((4, 1), (2, 4)),
              ((5, 0), (0, 8)), ((0, 8), (1, 8))]
    every = base.copy()
    for u, v in strays:
        g = base.copy()
        g.set_edge(u, v)
        every.set_edge(u, v)
        yield g, imap
    yield every, imap


@pytest.mark.parametrize("seed", range(4))
def test_contract_and_expand_match_oracle(seed):
    for g, imap in interval_mags(seed):
        result = outcome(contract_intervals, g, imap)
        assert result == outcome(oracles.contract_intervals, g, imap)
        if result[0] == "ok":
            assert expand_intervals(result[1], imap, 9) == oracles.expand_intervals(
                result[1], imap, 9)
    for sizes in [(6, 4), (3, 2)]:  # contracted MAGs with strays across blocks
        g = generate(GenSpec(CompanionTuple(sizes), 1, 8, seed))
        imap = IntervalMap(tuple((i, i + 2) for i in range(0, 2 * sizes[1], 2)))
        assert outcome(expand_intervals, g, imap, 2 * sizes[1] + 1) == outcome(
            oracles.expand_intervals, g, imap, 2 * sizes[1] + 1)


def coupling_mags():
    yield SimpleMag(CompanionTuple((3, 2)))
    for sizes, p in [((5, 4), (1, 8)), ((4, 3), (1, 2)), ((3, 1), (1, 2)), ((1, 5), (1, 1))]:
        yield generate(GenSpec(CompanionTuple(sizes), p[0], p[1], 3))
    for sizes in [(4, 2), (5, 3), (3, 6)]:
        spatial = spatial_mag(sizes, 4)
        yield spatial
        coupled = decode_snapshot(encode_snapshot(spatial, implied_couplings=True))
        yield coupled
        every_layer = coupled.copy()  # every pair of layers coupled at every node
        for node in range(sizes[0]):
            for alpha, beta in itertools.combinations(range(sizes[1]), 2):
                every_layer.set_edge((node, alpha), (node, beta))
        yield every_layer
        missing = every_layer.copy()
        missing.set_edge((sizes[0] - 1, sizes[1] - 2), (sizes[0] - 1, sizes[1] - 1), False)
        yield missing
        for stray in [((0, 0), (1, 1)), ((1, 0), (1, sizes[1] - 1)), ((0, sizes[1] - 1), (2, 0))]:
            for g in (spatial, coupled):
                strayed = g.copy()
                strayed.set_edge(*stray)
                yield strayed


def test_multiplex_checks_match_oracle():
    for g in coupling_mags():
        verdict = check_multiplex_couplings(g)
        assert (verdict.diagonal, verdict.categorical) == oracles.check_multiplex_couplings(g)


@pytest.mark.parametrize("implied", [False, True])
def test_stray_edge_test_matches_mask_oracle(implied):
    for g in coupling_mags():
        expected = oracles.first_non_spatial(g, implied)
        rank = first_stray_rank(g, implied)
        assert (None if rank is None else edge_from_rank(g.shape, rank)) == expected
        assert is_snapshot_like(g, implied) == (expected is None)


def coupling_verdicts(g):
    return is_sequentially_coupled(g), check_multiplex_couplings(g)


def oracle_coupling_verdicts(g):
    diagonal, categorical = oracles.check_multiplex_couplings(g)
    assert oracles.categorical_by_layer(g) == categorical
    return oracles.is_sequentially_coupled(g), CouplingCheck(diagonal, categorical, True)


@pytest.mark.parametrize("p", [(0, 1), (1, 8), (1, 2), (3, 4), (1, 1)])
def test_snapshot_paths_match_byte_per_position_oracles(p):
    for n_vertices, n_times in itertools.product(range(1, 10), repeat=2):
        for spatial_only in (False, True):
            spec = GenSpec(CompanionTuple((n_vertices, n_times)), *p,
                           10 * n_vertices + n_times, spatial_only)
            g = generate(spec)
            assert write_mcs(g) == write_mcs(oracles.generate(spec))
            for couplings in (False, True):
                payload = encode_snapshot(g, not spatial_only, couplings)
                assert write_msc(payload) == write_msc(oracles.encode_snapshot(g, couplings))
                back = decode_snapshot(payload)
                assert write_mcs(back) == write_mcs(oracles.decode_snapshot(payload))
                mags = [g, back]
                if couplings and n_vertices > 1 and n_times > 2:
                    late = back.copy()  # node 0 breaks later than the last node
                    late.set_edge((0, n_times - 2), (0, n_times - 1), False)
                    late.set_edge((n_vertices - 1, 0), (n_vertices - 1, 1), False)
                    mags.append(late)
                for h in mags:
                    assert coupling_verdicts(h) == oracle_coupling_verdicts(h)


def traced_peak(fn, *args, **kwargs):
    """(result, peak bytes traced during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_snapshot_paths_hold_less_than_a_byte_per_position():
    # M = 33,550,336 possible edges, S = 520,192 spatial positions: the
    # packed string is M/8 bytes and the positions 8*S.
    spec = GenSpec(CompanionTuple((128, 64)), 1, 2, 7, spatial_only=True)
    m = spec.shape.possible_edges
    peaks = {}
    g, peaks["generate"] = traced_peak(generate, spec)
    payload, peaks["encode"] = traced_peak(encode_snapshot, g, implied_couplings=True)
    back, peaks["decode"] = traced_peak(decode_snapshot, payload)
    assert back.edge_count() == g.edge_count() + 128 * 63
    assert all(peak < m for peak in peaks.values()), {
        name: f"{peak / 2**20:.1f} MiB" for name, peak in peaks.items()}


def test_sequential_coupling_gather_is_per_instant():
    # 1024 instants: all pairs of instants would be 2 * 1024 * 1023 / 2 ranks
    coupled = decode_snapshot(SnapshotPayload(2, 1024, True, BitString(1024)))
    m = coupled.shape.possible_edges
    verdict, peak = traced_peak(is_sequentially_coupled, coupled)
    assert verdict == (True, None)
    assert peak < m / 8, f"peak {peak / 2**20:.2f} MiB"


def test_multiplex_checks_decode_no_ranks(monkeypatch):
    calls = count_pair_decodes(monkeypatch)
    coupled = decode_snapshot(SnapshotPayload(2, 1024, True, BitString(1024)))
    m = coupled.shape.possible_edges
    verdict, peak = traced_peak(check_multiplex_couplings, coupled)
    assert verdict == CouplingCheck(True, False, True)
    assert calls == []
    assert peak < m / 8, f"peak {peak / 2**20:.2f} MiB"


# One decode per rank block, and strays in later blocks.


def count_pair_decodes(monkeypatch):
    """List that gets one entry per snapshot.pairs_from_ranks call."""
    calls = []
    decode = snapshot.pairs_from_ranks

    def counted(n, ranks):
        calls.append(ranks.size)
        return decode(n, ranks)

    monkeypatch.setattr(snapshot, "pairs_from_ranks", counted)
    return calls


def test_expand_intervals_decodes_each_block_once(monkeypatch):
    g = spatial_mag((64, 20), 5)
    imap = IntervalMap(tuple((i, i + 1) for i in range(20)))
    n_blocks = len(list(g.rank_blocks()))
    calls = count_pair_decodes(monkeypatch)
    out = expand_intervals(g, imap, 21)
    assert n_blocks >= 3 and len(calls) == n_blocks
    assert out.edge_count() == g.edge_count()


def planted_strays(g, allowed):
    """Copies of g with an edge outside `allowed`, a predicate on (u, v),
    set in its 3rd rank block, and in both its 2nd and 3rd."""
    assert g.edge_count() > 2 * BLOCK
    blocks = list(g.rank_blocks())[1:3]
    strays = []
    for block in blocks:
        rank = int(block[block.size // 2])
        while g.bits.get(rank) or allowed(*edge_from_rank(g.shape, rank)):
            rank += 1
        assert rank < block[-1]
        strays.append(rank)
    for ranks in (strays[1:], strays):
        strayed = g.copy()
        for rank in ranks:
            strayed.bits.set(rank)
        yield strayed


def not_snapshot(g, implied):
    """The error the snapshot encoder must raise, from the mask oracle."""
    u, v = oracles.first_non_spatial(g, implied)
    kind = "spatial or sequential-coupling" if implied else "spatial"
    return NotSnapshotError, f"edge {u} -- {v} is not {kind}", (u, v)


def test_strays_in_later_blocks_match_oracles():
    g = spatial_mag((128, 20), 6)
    imap = IntervalMap(tuple((i, i + 1) for i in range(20)))
    snapshot_like = lambda u, v: u[1] == v[1] or (u[0] == v[0] and v[1] == u[1] + 1)
    for strayed in planted_strays(g, snapshot_like):
        assert outcome(expand_intervals, strayed, imap, 21) == outcome(
            oracles.expand_intervals, strayed, imap, 21)
        for implied in (False, True):
            assert outcome(encode_snapshot, strayed, False, implied) == not_snapshot(
                strayed, implied)
    expanded = expand_intervals(g, imap, 21)
    canonical = lambda u, v: (u[1], v[1]) in imap.pairs and u[0] < v[0]
    for strayed in planted_strays(expanded, canonical):
        assert outcome(contract_intervals, strayed, imap) == outcome(
            oracles.contract_intervals, strayed, imap)
