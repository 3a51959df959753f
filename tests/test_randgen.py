"""Seeded generation: determinism, probability handling, PRNG pinning."""

import math

import numpy as np
import pytest

from magkit.core import CompanionTuple
from magkit.errors import ArgumentError, ShapeError
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
    # M = 1,050,525 words: one full chunk and part of the next
    shape = CompanionTuple((145, 10))
    m = shape.possible_edges
    assert WORD_CHUNK < m < 2 * WORD_CHUNK
    threshold = (3 << SEED_BITS) // 8
    expected = (presence_words(21, m) < np.uint64(threshold)).astype(np.uint8)
    g = generate(GenSpec(shape, 3, 8, 21))
    assert np.array_equal(g.bits.to_array(), expected)
    spatial = np.zeros(m, dtype=np.uint8)
    positions = spatial_positions(shape)
    spatial[positions] = expected[positions]
    s = generate(GenSpec(shape, 3, 8, 21, spatial_only=True))
    assert np.array_equal(s.bits.to_array(), spatial)


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
