"""Compressed-size upper bounds and the theoretical information gap.

A compressor adapter turns a serialized MAG into a lossless compressed
stream; 8x its byte length is an upper bound on the information content of
the characteristic string. The tool only ever reports compressed sizes,
never exact information content.

Two adapters ship: DEFLATE (zlib, dictionary-based) and LZMA2 in a raw
container (range-coder entropy backend, preset 9 extreme). Both are
round-trip verified by the test suite. A GapReport's JSON keys are its
field names in camelCase.
"""

from __future__ import annotations

import lzma
import zlib
from dataclasses import dataclass, fields
from typing import Callable

from .core import CompanionTuple, SimpleMag
from .errors import ArgumentError, CompressorError
from .formats import write_mcs
from .snapshot import encode_snapshot, msc_header_bits, spatial_edge_count


@dataclass(frozen=True)
class CompressorAdapter:
    name: str
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]


_LZMA_FILTERS = [{"id": lzma.FILTER_LZMA2, "preset": 9 | lzma.PRESET_EXTREME}]

ADAPTERS: dict[str, CompressorAdapter] = {
    "zlib": CompressorAdapter(
        name="zlib",
        compress=lambda data: zlib.compress(data, 9),
        decompress=zlib.decompress,
    ),
    "lzma": CompressorAdapter(
        name="lzma",
        compress=lambda data: lzma.compress(
            data, format=lzma.FORMAT_RAW, filters=_LZMA_FILTERS
        ),
        decompress=lambda data: lzma.decompress(
            data, format=lzma.FORMAT_RAW, filters=_LZMA_FILTERS
        ),
    ),
}


def get_adapter(name: str) -> CompressorAdapter:
    try:
        return ADAPTERS[name]
    except KeyError:
        raise ArgumentError(
            f"unknown compressor {name!r}; available: {', '.join(sorted(ADAPTERS))}"
        ) from None


def estimate_upper_bound(g: SimpleMag, adapter: CompressorAdapter) -> int:
    """Bits of the adapter's compressed serialization of g."""
    data = write_mcs(g)
    try:
        compressed = adapter.compress(data)
    except Exception as exc:
        raise CompressorError(f"adapter {adapter.name!r} failed: {exc}") from exc
    return 8 * len(compressed)


@dataclass
class GapReport:
    """Spatial-versus-general position counts and measured sizes."""

    total_positions: int
    spatial_positions: int
    theoretical_gap_bits: int
    header_bits: int
    compressor: str | None = None
    compressed_general_bits: int | None = None
    compressed_spatial_bits: int | None = None
    ratio: float | None = None

    def to_json_dict(self) -> dict:
        return {_camel_case(f.name): getattr(self, f.name) for f in fields(self)}


def _camel_case(name: str) -> str:
    head, *words = name.split("_")
    return head + "".join(word.capitalize() for word in words)


def compute_gap(n_vertices: int, n_times: int) -> GapReport:
    """Exact position arithmetic for a (vertices, times/layers) shape.

    The gap is the count of non-spatial positions; the logarithmic term is
    reported separately as the measured .msc header size.
    """
    if n_vertices < 1 or n_times < 1:
        raise ArgumentError("dimensions must be positive")
    shape = CompanionTuple((n_vertices, n_times))
    total = shape.possible_edges
    spatial = spatial_edge_count(shape)
    return GapReport(
        total_positions=total,
        spatial_positions=spatial,
        theoretical_gap_bits=total - spatial,
        header_bits=msc_header_bits(n_vertices, n_times),
    )


def compare_info(
    general: SimpleMag, spatial: SimpleMag, adapter: CompressorAdapter
) -> GapReport:
    """Measured compressed sizes of a general MAG against a spatial one."""
    if general.shape.order != 2 or spatial.shape.order != 2:
        raise ArgumentError("comparison needs second-order MAGs")
    if general.shape != spatial.shape:
        raise ArgumentError(
            f"shape mismatch: {general.shape.sizes} vs {spatial.shape.sizes}"
        )
    encode_snapshot(spatial)  # raises NotSnapshotError on a non-spatial edge
    report = compute_gap(*general.shape.sizes)
    report.compressor = adapter.name
    report.compressed_general_bits = estimate_upper_bound(general, adapter)
    report.compressed_spatial_bits = estimate_upper_bound(spatial, adapter)
    report.ratio = report.compressed_general_bits / report.compressed_spatial_bits
    return report
