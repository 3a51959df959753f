"""Seeded generation: determinism, probability handling, PRNG pinning."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from magkit import randgen
from magkit.bitstring import BitString
from magkit.core import CompanionTuple
from magkit.errors import ArgumentError, ShapeError
from magkit.formats import write_mcs
from magkit.randgen import SEED_BITS, WORD_CHUNK, GenSpec, generate, presence_words
from magkit.snapshot import is_spatial, spatial_edge_count, spatial_positions

# Frozen Philox4x64 raw-word vectors: first four 64-bit outputs per key.
# These pin the generation algorithm itself; a change here silently breaks
# reproducibility of every seeded artifact.
PHILOX_VECTORS = {
    0: (0x02F4BA6408E4D89B, 0x3DD62B0B9CA8C5B2, 0x1C8667A55D902E79, 0x907D7A052FD5B4DC),
    7: (0xDF4034B829E9FBA4, 0x4B9D10CDF8E64087, 0x6B8B857E506AAC98, 0x67C7C945B1BA6E52),
    123456789: (0xD3856507EB9785F2, 0x70BA2D239D43ACFB, 0x603897A48A69DBD0, 0x9DB57D79D495041B),
    2**64 - 1: (0x3C2521C58DDE5BFB, 0xB7A1AD5DAE1306D7, 0x6942EAE9FD2FEB84, 0xB7552E878D1C26FE),
}


def test_prng_vectors_pinned():
    for key, expected in PHILOX_VECTORS.items():
        words = presence_words(key, 4)
        assert tuple(int(w) for w in words) == expected, key


def test_prng_prefix_stability():
    # the first k words never depend on how many are drawn
    long = presence_words(9, 64)
    short = presence_words(9, 10)
    assert (long[:10] == short).all()


def test_golden_artifact_bytes():
    # pins the generator, bit packing, and the serializers all at once
    from magkit.formats import write_mcs
    from magkit.snapshot import encode_snapshot, write_msc

    g = generate(GenSpec(CompanionTuple((4, 3)), 1, 2, 1))
    assert write_mcs(g).hex() == "4d435331020403b5e383fe4a7c4ff840"
    s = generate(GenSpec(CompanionTuple((4, 3)), 1, 2, 1, spatial_only=True))
    assert write_msc(encode_snapshot(s)).hex() == "4d534331040300a24840"


def test_generate_across_word_chunks():
    # M = 1,050,525 words: one full chunk and part of the next, whose last
    # byte holds 5 bits and 3 bits of padding
    shape = CompanionTuple((145, 10))
    m = shape.possible_edges
    assert WORD_CHUNK < m < 2 * WORD_CHUNK and m % 8 == 5
    positions = spatial_positions(shape)
    threshold = (3 << SEED_BITS) // 8
    for p_num, p_den, expected in [
        (3, 8, (presence_words(21, m) < np.uint64(threshold)).astype(np.uint8)),
        (1, 1, np.ones(m, dtype=np.uint8)),
    ]:
        g = generate(GenSpec(shape, p_num, p_den, 21))
        assert g.bits == BitString.from_array(expected)  # padding included
        spatial = np.zeros(m, dtype=np.uint8)
        spatial[positions] = expected[positions]
        s = generate(GenSpec(shape, p_num, p_den, 21, spatial_only=True))
        assert s.bits == BitString.from_array(spatial)


def test_probability_zero_and_one():
    shape = CompanionTuple((4, 3))
    assert generate(GenSpec(shape, 0, 1, 5)).edge_count() == 0
    complete = generate(GenSpec(shape, 1, 1, 5))
    assert complete.edge_count() == shape.possible_edges
    spatial_full = generate(GenSpec(shape, 1, 1, 5, spatial_only=True))
    assert spatial_full.edge_count() == spatial_edge_count(shape)


def test_determinism_and_seed_sensitivity():
    spec = GenSpec(CompanionTuple((6, 4)), 1, 2, 77)
    assert generate(spec) == generate(spec)
    other = GenSpec(CompanionTuple((6, 4)), 1, 2, 78)
    assert generate(spec) != generate(other)


def test_spatial_only_produces_only_spatial_edges():
    g = generate(GenSpec(CompanionTuple((6, 5)), 2, 3, 13, spatial_only=True))
    assert g.edge_count() > 0
    for u, v in g.edges():
        assert is_spatial(u, v)


def test_spec_validation():
    shape = CompanionTuple((4, 3))
    with pytest.raises(ArgumentError):
        GenSpec(shape, 3, 2, 0)
    with pytest.raises(ArgumentError):
        GenSpec(shape, -1, 2, 0)
    with pytest.raises(ArgumentError):
        GenSpec(shape, 1, 0, 0)
    with pytest.raises(ArgumentError):
        GenSpec(shape, 1, 2, -1)
    with pytest.raises(ArgumentError):
        GenSpec(shape, 1, 2, 2**64)
    with pytest.raises(ShapeError):
        GenSpec(CompanionTuple((4, 3, 2)), 1, 2, 0, spatial_only=True)


def test_edge_count_concentration():
    # Binomial(M, 1/2) within 4 standard deviations across 20 seeds
    shape = CompanionTuple((32, 16))
    m = shape.possible_edges
    assert m == 130816
    band = 4 * math.sqrt(m / 4)
    for seed in range(20):
        count = generate(GenSpec(shape, 1, 2, seed)).edge_count()
        assert abs(count - m / 2) <= band, seed


def test_non_dyadic_probability_moments():
    shape = CompanionTuple((16, 8))
    m = shape.possible_edges
    p = 1 / 3
    counts = [generate(GenSpec(shape, 1, 3, seed)).edge_count() for seed in range(10)]
    sigma = math.sqrt(m * p * (1 - p))
    for count in counts:
        assert abs(count - m * p) <= 5 * sigma


# Spatial-only generation draws each row's spatial run on its own, after
# setting the Philox counter through `Philox.state`.

PROBABILITIES = [(0, 1), (1, 3), (1, 2), (5, 7), (1, 1)]
# shapes holding runs that start in each lane of a 4-word Philox block, and
# runs that continue into the next block
BLOCK_OFFSET_SHAPES = [(5, 3), (2, 7), (4, 4), (7, 2)]


def spatial_runs(shape):
    """(start, length) of each row's non-empty spatial rank run."""
    n_vertices, _ = shape.sizes
    n = shape.vertex_count
    runs = []
    for a in range(n):
        length = (a // n_vertices + 1) * n_vertices - a - 1
        if length:
            runs.append((a * n - a * (a + 1) // 2, length))
    return runs


def test_spatial_runs_are_the_spatial_positions():
    for sizes in [(1, 1), (1, 4), (4, 1), (5, 3), (3, 7)]:
        shape = CompanionTuple(sizes)
        ranks = [r for start, length in spatial_runs(shape)
                 for r in range(start, start + length)]
        assert ranks == spatial_positions(shape).tolist(), sizes


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from(PROBABILITIES),
    st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
)
@example(1, 12, (1, 2), 0)
@example(12, 1, (5, 7), 2**64 - 1)
@example(12, 12, (1, 3), 2**64 - 1)
def test_spatial_generation_matches_the_full_draw(n_vertices, n_times, p, seed):
    spec = GenSpec(CompanionTuple((n_vertices, n_times)), *p, seed, spatial_only=True)
    assert generate(spec) == oracles.generate(spec)


@pytest.mark.parametrize("sizes", BLOCK_OFFSET_SHAPES)
def test_spatial_runs_at_every_block_offset(sizes):
    shape = CompanionTuple(sizes)
    for seed in (0, 7, 2**64 - 1):
        for p in PROBABILITIES[1:4]:
            spec = GenSpec(shape, *p, seed, spatial_only=True)
            assert generate(spec) == oracles.generate(spec), (seed, p)


def test_spatial_runs_longer_than_a_word_chunk(monkeypatch):
    # runs of up to 10 words, drawn in pieces of 8 that continue one stream
    monkeypatch.setattr(randgen, "WORD_CHUNK", 8)
    for sizes in [(11, 3), *BLOCK_OFFSET_SHAPES]:
        spec = GenSpec(CompanionTuple(sizes), 1, 3, 2**64 - 1, spatial_only=True)
        assert generate(spec) == oracles.generate(spec), sizes


def test_block_offset_shapes_cover_every_lane_and_a_block_crossing():
    runs = [run for sizes in BLOCK_OFFSET_SHAPES
            for run in spatial_runs(CompanionTuple(sizes))]
    assert {start % 4 for start, _ in runs} == {0, 1, 2, 3}
    assert {start % 4 for start, length in runs
            if (start + length - 1) // 4 > start // 4} == {0, 1, 2, 3}


@pytest.mark.parametrize("key", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("counter", [0, 1, 5, 2**40 + 3])
def test_philox_state_counter_contract(key, counter):
    # Generation relies on this layout of numpy's Philox state: counter
    # (c, 0, 0, 0) with an empty buffer (buffer_pos 4) draws words 4c...
    # of the keyed stream. A change in numpy fails here, not in .mcs bytes.
    words = np.random.Philox(key=key)
    state = words.state
    state["state"]["counter"][:] = (counter, 0, 0, 0)
    state["buffer_pos"] = 4
    words.state = state
    drawn = words.random_raw(11)
    assert (drawn == np.random.Philox(key=key, counter=counter).random_raw(11)).all()
    if counter < 16:
        stream = presence_words(key, 4 * counter + 11)
        assert (drawn == stream[4 * counter :]).all()


def test_spatial_generation_draws_only_spatial_words(monkeypatch):
    shape = CompanionTuple((128, 64))
    drawn = []

    class CountingPhilox(np.random.Philox):
        def random_raw(self, size=None, output=True):
            drawn.append(1 if size is None else int(np.prod(size)))
            return super().random_raw(size, output)

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    g = generate(GenSpec(shape, 1, 2, 7, spatial_only=True))
    # at most three leading words per run; M is 33,550,336 here
    assert sum(drawn) <= spatial_edge_count(shape) + 3 * shape.vertex_count
    assert hashlib.sha256(write_mcs(g)).hexdigest() == (
        "5cd99dd337fab24599b4c3e2e583f35ce20ac01c0141423af72cfac4b5e1c464"
    )
