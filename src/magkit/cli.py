"""Command-line front end.

Every run is a pure function of its flags and input bytes: seeds are
mandatory where randomness is involved, reports are key-sorted JSON, and
identical invocations produce byte-identical outputs.

Exit codes: 0 success, 1 I/O failure, 2 usage or malformed input,
3 domain violation (e.g. encoding a non-snapshot MAG). Failures print one
machine-readable JSON object on stderr; an exit-3 failure that names an edge
first prints that edge on its own line as a `.magt` edge line `e u... v...`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import kproxy, randgen, snapshot, topo
from .core import CompanionTuple
from .errors import ArgumentError, MagError, NotSnapshotError, ParseError
from .formats import read_magt, read_mcs, write_magt, write_mcs

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _parse_aspects(text: str) -> CompanionTuple:
    try:
        sizes = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad aspect list {text!r}") from None
    if not sizes:
        raise argparse.ArgumentTypeError("aspect list is empty")
    try:
        return CompanionTuple(sizes)
    except MagError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_probability(text: str) -> tuple[int, int]:
    num, sep, den = text.partition("/")
    if not sep:
        raise argparse.ArgumentTypeError(f"probability must be NUM/DEN, got {text!r}")
    try:
        return int(num), int(den)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad probability {text!r}") from None


def _read_graph(path: str):
    data = Path(path).read_bytes()
    if path.endswith(".magt"):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from exc
        return read_magt(text)
    return read_mcs(data)


def _write_graph(path: str, g) -> None:
    if path.endswith(".magt"):
        Path(path).write_text(write_magt(g))
    else:
        Path(path).write_bytes(write_mcs(g))


def _emit_report(document: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    else:
        lines = []
        for key in sorted(document):
            value = document[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"{key}: {value}")
        text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> None:
    spec = randgen.GenSpec(
        shape=args.aspects,
        p_num=args.p_edge[0],
        p_den=args.p_edge[1],
        seed=args.seed,
        spatial_only=args.spatial,
    )
    _write_graph(args.out, randgen.generate(spec))


def _cmd_encode_snapshot(args) -> None:
    g = _read_graph(args.input)
    payload = snapshot.encode_snapshot(
        g, strip_non_spatial=args.strip, implied_couplings=args.couplings
    )
    Path(args.out).write_bytes(snapshot.write_msc(payload))


def _cmd_decode_snapshot(args) -> None:
    payload = snapshot.read_msc(Path(args.input).read_bytes())
    _write_graph(args.out, snapshot.decode_snapshot(payload))


def _cmd_analyze(args) -> None:
    g = _read_graph(args.input)
    _emit_report(topo.topo_report(g, reachability_aspect=args.aspect), args)


def _cmd_compare_info(args) -> None:
    adapter = kproxy.get_adapter(args.compressor)
    general = _read_graph(args.general)
    spatial = _read_graph(args.spatial)
    _emit_report(kproxy.compare_info(general, spatial, adapter).to_json_dict(), args)


def _cmd_info_gap(args) -> None:
    _emit_report(kproxy.compute_gap(args.vertices, args.times).to_json_dict(), args)


def _cmd_convert(args) -> None:
    if not args.out.endswith((".magt", ".mcs")):
        raise ArgumentError(f"cannot infer format of {args.out!r}")
    _write_graph(args.out, _read_graph(args.input))


def _add_report_flags(parser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magkit",
        description="Multiaspect-graph generation, codecs, and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random MAG (.mcs or .magt)")
    p.add_argument("--aspects", type=_parse_aspects, required=True,
                   help="comma-separated aspect sizes, e.g. 32,16")
    p.add_argument("--p-edge", type=_parse_probability, default=(1, 2),
                   help="edge probability NUM/DEN (default 1/2)")
    p.add_argument("--seed", type=int, required=True, help="64-bit generator seed")
    p.add_argument("--spatial", action="store_true",
                   help="restrict edges to spatial positions (order 2 only)")
    p.add_argument("-o", "--out", required=True, help="output .mcs or .magt path")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("encode-snapshot", help="compress a spatial MAG to .msc")
    p.add_argument("input", help="input .mcs or .magt path")
    p.add_argument("--strip", action="store_true",
                   help="drop non-spatial edges instead of failing")
    p.add_argument("--couplings", action="store_true",
                   help="treat sequential couplings as implied (not stored)")
    p.add_argument("-o", "--out", required=True, help="output .msc path")
    p.set_defaults(func=_cmd_encode_snapshot)

    p = sub.add_parser("decode-snapshot", help="expand an .msc back to .mcs or .magt")
    p.add_argument("input", help="input .msc path")
    p.add_argument("-o", "--out", required=True, help="output .mcs or .magt path")
    p.set_defaults(func=_cmd_decode_snapshot)

    p = sub.add_parser("analyze", help="topology report for a MAG file")
    p.add_argument("input", help="input .mcs or .magt path")
    p.add_argument("--aspect", type=int, default=None,
                   help="also verify non-sequential reachability on this aspect")
    _add_report_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare-info", help="compressed sizes: general vs spatial")
    p.add_argument("general", help="general MAG file")
    p.add_argument("spatial", help="spatial (snapshot-like) MAG file")
    p.add_argument("--compressor", choices=sorted(kproxy.ADAPTERS), default="zlib")
    _add_report_flags(p)
    p.set_defaults(func=_cmd_compare_info)

    p = sub.add_parser("info-gap", help="theoretical information-gap arithmetic")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--times", type=int, required=True)
    _add_report_flags(p)
    p.set_defaults(func=_cmd_info_gap)

    p = sub.add_parser("convert", help="convert between .mcs and .magt")
    p.add_argument("input", help="input .mcs or .magt path")
    p.add_argument("-o", "--out", required=True, help="output path (.mcs or .magt)")
    p.set_defaults(func=_cmd_convert)

    return parser


def _fail(code: int, error: Exception) -> int:
    payload = {"error": type(error).__name__, "message": str(error)}
    if isinstance(error, NotSnapshotError) and error.edge:
        u, v = error.edge
        payload["edge"] = "e " + " ".join(str(c) for c in (*u, *v))
        print(payload["edge"], file=sys.stderr)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except NotSnapshotError as exc:
        return _fail(EXIT_DOMAIN, exc)
    except MagError as exc:
        return _fail(EXIT_USAGE, exc)
    except (OSError, MemoryError) as exc:
        return _fail(EXIT_IO, exc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
