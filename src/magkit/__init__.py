"""magkit: multiaspect-graph toolkit.

Canonical composite-edge indexing, characteristic-string codecs, the
snapshot/multiplex lossless codec, seeded random generation, topology
analyzers, and compressor-based information estimates.
"""

from .bitstring import BitString
from .core import (
    CompanionTuple,
    SimpleMag,
    edge_from_rank,
    edge_rank,
    possible_edge_count,
    vertex_from_index,
    vertex_index,
)
from .formats import read_magt, read_mcs, write_magt, write_mcs
from .kproxy import (
    ADAPTERS,
    CompressorAdapter,
    GapReport,
    compare_info,
    compute_gap,
    estimate_upper_bound,
)
from .randgen import GenSpec, generate
from .snapshot import (
    CouplingCheck,
    IntervalMap,
    SnapshotPayload,
    check_multiplex_couplings,
    contract_intervals,
    decode_snapshot,
    encode_snapshot,
    expand_intervals,
    is_sequentially_coupled,
    is_snapshot_like,
    is_spatial,
    read_msc,
    spatial_edge_count,
    write_msc,
)
from .topo import (
    common_neighbor_count,
    common_neighbor_matrix,
    composite_diameter,
    degree_profile,
    is_non_sequential_interdimensional,
    non_sequential_census,
    topo_report,
    verify_non_sequential_reachability,
)

__version__ = "0.1.0"
