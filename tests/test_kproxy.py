"""Compressor adapters and information-gap arithmetic."""

import pytest

from magkit.core import CompanionTuple, SimpleMag, possible_edge_count
from magkit.errors import ArgumentError, CompressorError, NotSnapshotError
from magkit.formats import write_mcs
from magkit.kproxy import (
    ADAPTERS,
    CompressorAdapter,
    compare_info,
    compute_gap,
    estimate_upper_bound,
    get_adapter,
)
from magkit.randgen import GenSpec, generate


@pytest.mark.parametrize("name", sorted(ADAPTERS))
def test_adapter_roundtrip(name):
    adapter = ADAPTERS[name]
    samples = [
        b"",
        b"\x00" * 1000,
        bytes(range(256)) * 3,
        write_mcs(generate(GenSpec(CompanionTuple((8, 8)), 1, 2, 4))),
    ]
    for sample in samples:
        assert adapter.decompress(adapter.compress(sample)) == sample


@pytest.mark.parametrize("name", sorted(ADAPTERS))
def test_empty_mag_highly_compressible(name):
    g = SimpleMag(CompanionTuple((32, 32)))
    m = g.shape.possible_edges
    assert estimate_upper_bound(g, ADAPTERS[name]) < m / 10


@pytest.mark.parametrize("name", sorted(ADAPTERS))
def test_random_mag_near_incompressible(name):
    g = generate(GenSpec(CompanionTuple((32, 32)), 1, 2, 6))
    m = g.shape.possible_edges
    assert estimate_upper_bound(g, ADAPTERS[name]) >= 0.95 * m


def test_estimate_deterministic():
    g = generate(GenSpec(CompanionTuple((16, 8)), 1, 2, 1))
    adapter = ADAPTERS["zlib"]
    assert estimate_upper_bound(g, adapter) == estimate_upper_bound(g, adapter)


def test_adapter_failure_classified():
    def boom(_):
        raise RuntimeError("broken")

    adapter = CompressorAdapter("boom", boom, boom)
    with pytest.raises(CompressorError):
        estimate_upper_bound(SimpleMag(CompanionTuple((4,))), adapter)


def test_get_adapter_unknown():
    with pytest.raises(ArgumentError) as info:
        get_adapter("nope")
    assert "lzma" in str(info.value) and "zlib" in str(info.value)


def test_compute_gap_values():
    assert compute_gap(1, 1).theoretical_gap_bits == 0
    report = compute_gap(3, 2)
    assert (report.total_positions, report.spatial_positions) == (15, 6)
    assert report.theoretical_gap_bits == 9
    assert compute_gap(32, 32).theoretical_gap_bits == 523776 - 15872 == 507904
    with pytest.raises(ArgumentError):
        compute_gap(0, 3)


def test_gap_cross_module_identity():
    for n_vertices in (1, 2, 5, 16):
        for n_times in (1, 3, 8):
            report = compute_gap(n_vertices, n_times)
            expected = possible_edge_count(
                CompanionTuple((n_vertices, n_times))
            ) - n_times * possible_edge_count(CompanionTuple((n_vertices, 1)))
            assert report.theoretical_gap_bits == expected


def test_compare_info_identical_inputs():
    g = generate(GenSpec(CompanionTuple((8, 4)), 1, 2, 9, spatial_only=True))
    report = compare_info(g, g, ADAPTERS["zlib"])
    assert report.ratio == 1.0
    assert report.compressed_general_bits == report.compressed_spatial_bits
    assert report.compressor == "zlib"


def test_compare_info_empty_inputs():
    empty = SimpleMag(CompanionTuple((8, 4)))
    report = compare_info(empty, empty, ADAPTERS["lzma"])
    assert report.ratio == 1.0
    assert report.compressed_general_bits == report.compressed_spatial_bits


def test_compare_info_validation():
    spatial = generate(GenSpec(CompanionTuple((8, 4)), 1, 2, 9, spatial_only=True))
    general = generate(GenSpec(CompanionTuple((8, 5)), 1, 2, 9))
    with pytest.raises(ArgumentError):
        compare_info(general, spatial, ADAPTERS["zlib"])
    not_spatial = generate(GenSpec(CompanionTuple((8, 4)), 1, 2, 9))
    with pytest.raises(NotSnapshotError):
        compare_info(not_spatial, not_spatial, ADAPTERS["zlib"])
    order3 = SimpleMag(CompanionTuple((4, 2, 2)))
    with pytest.raises(ArgumentError):
        compare_info(order3, order3, ADAPTERS["zlib"])


def test_report_json_shape():
    report = compare_info(
        generate(GenSpec(CompanionTuple((8, 4)), 1, 2, 3)),
        generate(GenSpec(CompanionTuple((8, 4)), 1, 2, 3, spatial_only=True)),
        ADAPTERS["lzma"],
    )
    doc = report.to_json_dict()
    assert list(doc) == [
        "totalPositions", "spatialPositions", "theoreticalGapBits", "headerBits",
        "compressor", "compressedGeneralBits", "compressedSpatialBits", "ratio",
    ]
    assert doc["theoreticalGapBits"] == doc["totalPositions"] - doc["spatialPositions"]
    assert doc["ratio"] == doc["compressedGeneralBits"] / doc["compressedSpatialBits"]
    assert doc["compressor"] == "lzma"
