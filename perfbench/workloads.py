"""The benchmark's four workloads: inputs, one pass each, output checks.

A workload builds its inputs through magkit in `setup`, then runs a fixed
list of operations per pass (`ops`). Commands go through `magkit.cli.main`,
as a user would run them; the library-only operations are called directly.
`check` judges the outputs of a pass against reference.py, which computes
apart from magkit, or against properties the inputs have by construction.
Each check belongs to one operation, and an operation whose check fails
counts as failed.

All inputs derive from the run's seed. The full shapes are the benchmark's;
tests run the same workloads at small shapes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import zlib
from pathlib import Path

import numpy as np

import reference as ref
import setups
from magkit import formats, snapshot, topo
from magkit.core import SimpleMag


class Workload(setups.Inputs):
    """Inputs in `dir`, one pass as `ops()`, checks over a pass's results.

    `setup` builds the inputs through magkit; it is the workload's function
    in setups.py, which the set-up probe runs on its own."""

    name = ""
    full_shape: tuple[int, ...] = ()
    main = "g.mcs"
    # The input whose edges() a pass iterates, if any; the traced run times
    # draining it apart from the passes.
    edges_input: str | None = None

    def __init__(self, seed: int, dir: Path, shape: tuple[int, ...] | None = None):
        super().__init__(seed, dir, tuple(shape or self.full_shape))

    def setup(self) -> None:
        setups.SETUPS[self.name](self)

    def ops(self) -> list[tuple[str, callable]]:
        """(operation name, call) for one pass; a call returns its output:
        a file path, or the object a library call returned."""
        raise NotImplementedError

    def check(self, results: dict) -> list[tuple[str, str, bool]]:
        """(check name, operation name, passed) for one pass's results."""
        raise NotImplementedError

    def main_input(self) -> tuple[tuple[int, ...], np.ndarray]:
        """(shape, presence bits) of the workload's largest input."""
        return ref.unpack_mcs(self.read(self.main))

    def read(self, name: str) -> bytes:
        return Path(self.path(name)).read_bytes()

    def writes(self, out: str, run) -> callable:
        """An operation that runs `run` and returns the file it writes."""
        def call():
            run()
            return Path(self.path(out))
        return call


def judge(specs) -> list[tuple[str, str, bool]]:
    """Evaluate (check name, operation name, test) triples; a test that
    raises on a malformed output fails."""
    out = []
    for name, op, test in specs:
        try:
            ok = bool(test())
        except (ValueError, KeyError, IndexError, TypeError, AttributeError):
            ok = False
        out.append((name, op, ok))
    return out


def fingerprint(result) -> str:
    """Digest of an operation's output, to show that passes agree."""
    if isinstance(result, Path):
        data = result.read_bytes()
    elif isinstance(result, SimpleMag):
        data = mcs_bytes(result)
    else:
        data = repr(result).encode()
    return hashlib.sha256(data).hexdigest()


class Analyze(Workload):
    """`magkit analyze --aspect 2` on one order-2 MAG of shape (128, 16)."""

    full_shape = (128, 16)

    def ops(self):
        return [("analyze", self.writes("report.json", lambda: self.cli(
            "analyze", "analyze", self.path(self.main), "--aspect", "2",
            "--out", self.path("report.json"))))]

    def check(self, results):
        try:
            report = json.loads(results["analyze"].read_text())
        except ValueError:
            report = {}
        expected = ref.analyze_report(self.read(self.main), 2)
        specs = [(f"report.{key}", "analyze", lambda key=key: report[key] == expected[key])
                 for key in expected]
        specs.append(("report.keys", "analyze", lambda: sorted(report) == sorted(expected)))
        return judge(specs + self.property_checks(report))

    def property_checks(self, report) -> list:
        return []


class AnalyzeDense(Analyze):
    name = "analyze-dense"


class AnalyzeTvg(Analyze):
    """The input is a snapshot TVG that carries every sequential coupling:
    spatial edges with p = 1/2 plus all couplings, built by gen --spatial,
    encode-snapshot --couplings and decode-snapshot."""

    name = "analyze-tvg"

    def property_checks(self, report):
        n_v, n_t = self.shape
        failing = n_v * n_v * max(n_t - 3, 0) * max(n_t - 2, 0) // 2
        return [
            ("tvg.sequentiallyCoupled", "analyze",
             lambda: report["sequentiallyCoupled"] is True),
            ("tvg.census", "analyze", lambda: report["interdimensionalCensus"] == {"2": 0}),
            ("tvg.failingPairCount", "analyze",
             lambda: report["nonSequentialReachability"]["failingPairCount"] == failing),
        ]


class Interchange(Workload):
    """`magkit convert` .mcs -> .magt -> .mcs on an order-3 MAG."""

    name = "interchange"
    full_shape = (16, 8, 8)
    edges_input = "g.mcs"

    def ops(self):
        p = self.path
        return [
            ("convert-to-magt", self.writes("g.magt", lambda: self.cli(
                "convert_to_magt", "convert", p("g.mcs"), "-o", p("g.magt")))),
            ("convert-to-mcs", self.writes("back.mcs", lambda: self.cli(
                "convert_to_mcs", "convert", p("g.magt"), "-o", p("back.mcs")))),
        ]

    def check(self, results):
        source = self.read("g.mcs")
        sizes, bits = ref.unpack_mcs(source)

        def magt():
            magt_sizes, rows = ref.parse_magt(results["convert-to-magt"].read_text())
            return magt_sizes == sizes and np.array_equal(rows, ref.magt_rows(sizes, bits))

        return judge([
            ("magt.edges", "convert-to-magt", magt),
            ("mcs.roundtrip", "convert-to-mcs",
             lambda: results["convert-to-mcs"].read_bytes() == source),
        ])


class Snapshot(Workload):
    """Generation, the .msc codec, compressed sizes, the coupling checks and
    interval contraction on order-2 MAGs of shape (128, 64)."""

    name = "snapshot"
    full_shape = (128, 64)
    main = "general.mcs"
    edges_input = "coupled.mcs"

    def interval_map(self) -> snapshot.IntervalMap:
        return snapshot.IntervalMap(setups.interval_pairs(self.shape[1]))

    def ops(self):
        p = self.path
        state = {}

        def command(name, out, *argv):
            return self.writes(out, lambda: self.cli(name, *argv))

        def read_coupled():
            state["coupled"] = formats.read_mcs(self.read("coupled.mcs"))
            return state["coupled"]

        def expand():
            state["expanded"] = snapshot.expand_intervals(
                self.contracted, self.interval_map(), self.shape[1])
            return state["expanded"]

        return [
            ("gen-spatial", self.writes("spatial.mcs", lambda: self.gen(
                "spatial.mcs", 0, spatial=True))),
            ("gen-general", self.writes("general.mcs", lambda: self.gen("general.mcs", 1))),
            ("encode", command("encode_snapshot", "spatial.msc", "encode-snapshot",
                               p("spatial.mcs"), "-o", p("spatial.msc"))),
            ("decode", command("decode_snapshot", "back.mcs", "decode-snapshot",
                               p("spatial.msc"), "-o", p("back.mcs"))),
            ("encode-couplings", command("encode_snapshot", "coupled.msc", "encode-snapshot",
                                         p("spatial.mcs"), "--couplings",
                                         "-o", p("coupled.msc"))),
            ("decode-couplings", command("decode_snapshot", "coupled.mcs", "decode-snapshot",
                                         p("coupled.msc"), "-o", p("coupled.mcs"))),
            ("compare-info", command("compare_info", "info.json", "compare-info",
                                     p("general.mcs"), p("spatial.mcs"),
                                     "--compressor", "zlib", "--out", p("info.json"))),
            ("read-coupled", read_coupled),
            ("is-sequentially-coupled", lambda: topo.is_sequentially_coupled(state["coupled"])),
            ("check-multiplex", lambda: snapshot.check_multiplex_couplings(state["coupled"])),
            ("expand-intervals", expand),
            ("contract-intervals", lambda: snapshot.contract_intervals(
                state["expanded"], self.interval_map())),
        ]

    def check(self, results):
        n_v, n_t = self.shape
        m = ref.position_count(self.shape)
        spatial_ranks = ref.spatial_ranks(n_v, n_t)
        coupling_ranks = ref.coupling_ranks(n_v, n_t)
        contracted = mcs_bytes(self.contracted)
        source = results["gen-spatial"].read_bytes()
        sizes, spatial = ref.unpack_mcs(source)
        general_bytes = results["gen-general"].read_bytes()

        def spatial_only():
            a, b = ref.present_pairs(sizes, spatial)
            return sizes == self.shape and (a // n_v == b // n_v).all()

        def general_density():
            g_sizes, bits = ref.unpack_mcs(general_bytes)
            # Binomial(M, 1/2): more than 8 sigma off is a broken generator.
            return g_sizes == self.shape and abs(int(bits.sum(dtype=np.int64)) - m / 2) <= 4 * m**0.5

        def msc(op, flag):
            data = results[op].read_bytes()
            hv, ht, flags, blocks = ref.unpack_msc(data)
            return (len(data) == ref.msc_length(n_v, n_t) and (hv, ht, flags) == (n_v, n_t, flag)
                    and np.array_equal(blocks, spatial[spatial_ranks]))

        def couplings():
            _, coupled = ref.unpack_mcs(results["decode-couplings"].read_bytes())
            added = np.flatnonzero(coupled != spatial)
            return np.array_equal(added, np.sort(coupling_ranks)) and coupled[added].all()

        def info():
            report = json.loads(results["compare-info"].read_text())
            general_bits = report["compressedGeneralBits"]
            spatial_bits = 8 * len(zlib.compress(source, 9))
            return (report["totalPositions"] == m
                    and report["spatialPositions"] == spatial_ranks.size
                    and report["theoreticalGapBits"] == m - spatial_ranks.size
                    and report["headerBits"] == 8 * (ref.msc_length(n_v, n_t)
                                                     - (spatial_ranks.size + 7) // 8)
                    and report["compressor"] == "zlib"
                    and general_bits >= 0.95 * m
                    and general_bits == 8 * len(zlib.compress(general_bytes, 9))
                    and report["compressedSpatialBits"] == spatial_bits
                    and report["ratio"] == general_bits / spatial_bits)

        def expanded():
            _, bits = ref.unpack_mcs(mcs_bytes(results["expand-intervals"]))
            a, b = ref.present_pairs(self.shape, bits)
            ta, tb = a // n_v, b // n_v
            return (int(bits.sum()) == int(ref.unpack_mcs(contracted)[1].sum())
                    and (tb - ta == 2).all() and (ta % 2 == 0).all() and (a % n_v < b % n_v).all())

        return judge([
            ("gen.spatial-only", "gen-spatial", spatial_only),
            ("gen.density", "gen-general", general_density),
            ("msc.blocks", "encode", lambda: msc("encode", 0)),
            ("msc.roundtrip", "decode", lambda: results["decode"].read_bytes() == source),
            ("msc.blocks-couplings", "encode-couplings", lambda: msc("encode-couplings", 1)),
            ("msc.couplings", "decode-couplings", couplings),
            ("info.sizes", "compare-info", info),
            ("read.coupled", "read-coupled", lambda: mcs_bytes(results["read-coupled"])
             == results["decode-couplings"].read_bytes()),
            ("coupled.sequential", "is-sequentially-coupled",
             lambda: results["is-sequentially-coupled"] == (True, None)),
            ("coupled.multiplex", "check-multiplex",
             lambda: dataclasses.astuple(results["check-multiplex"]) == (True, False, True)),
            ("intervals.expand", "expand-intervals", expanded),
            ("intervals.roundtrip", "contract-intervals",
             lambda: mcs_bytes(results["contract-intervals"]) == contracted),
        ])


def mcs_bytes(g: SimpleMag) -> bytes:
    """The .mcs bytes of an in-memory MAG, serialized here, not by magkit."""
    return ref.pack_mcs(g.shape.sizes, bytes(g.bits.payload))


WORKLOADS = {w.name: w for w in (AnalyzeDense, AnalyzeTvg, Interchange, Snapshot)}

# Small shapes of the same workloads, for the self-test.
SMALL_SHAPES = {
    "analyze-dense": (12, 8),
    "analyze-tvg": (6, 8),
    "interchange": (4, 3, 3),
    "snapshot": (8, 10),
}
