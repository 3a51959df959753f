"""CLI contracts: determinism, exit codes, pipeline round trips."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from magkit.cli import main
from magkit.core import CompanionTuple, SimpleMag
from magkit.formats import read_mcs, write_magt, write_mcs
from magkit.kproxy import compute_gap
from magkit.topo import topo_report


def run(argv):
    return main(argv)


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.mcs"
    b = tmp_path / "b.mcs"
    flags = ["gen", "--aspects", "32,16", "--p-edge", "1/2", "--seed", "7"]
    assert run(flags + ["-o", str(a)]) == 0
    assert run(flags + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_empty_probability(tmp_path):
    out = tmp_path / "empty.mcs"
    assert run(["gen", "--aspects", "2,1", "--p-edge", "0/1", "--seed", "0",
                "-o", str(out)]) == 0
    assert read_mcs(out.read_bytes()).edge_count() == 0


def test_gen_spatial_pipeline(tmp_path, capsys):
    out = tmp_path / "spa.mcs"
    assert run(["gen", "--aspects", "16,16", "--seed", "3", "--spatial",
                "-o", str(out)]) == 0
    assert run(["analyze", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["snapshotLike"] is True
    assert report["sequentiallyCoupled"] is False


def test_analyze_general_random_tvg(tmp_path, capsys):
    out = tmp_path / "g.mcs"
    assert run(["gen", "--aspects", "16,16", "--seed", "11", "-o", str(out)]) == 0
    assert run(["analyze", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sequentiallyCoupled"] is False
    assert report["snapshotLike"] is False


def test_snapshot_file_roundtrip(tmp_path):
    src = tmp_path / "g.mcs"
    enc = tmp_path / "g.msc"
    back = tmp_path / "g2.mcs"
    assert run(["gen", "--aspects", "12,7", "--seed", "5", "--spatial",
                "-o", str(src)]) == 0
    assert run(["encode-snapshot", str(src), "-o", str(enc)]) == 0
    assert run(["decode-snapshot", str(enc), "-o", str(back)]) == 0
    assert src.read_bytes() == back.read_bytes()


def test_encode_rejects_general_mag(tmp_path, capsys):
    src = tmp_path / "g.mcs"
    assert run(["gen", "--aspects", "8,8", "--seed", "5", "-o", str(src)]) == 0
    code = run(["encode-snapshot", str(src), "-o", str(tmp_path / "g.msc")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("e ")
    assert json.loads(err.splitlines()[-1])["error"] == "NotSnapshotError"


def test_decode_couplings_payload(tmp_path):
    src = tmp_path / "empty.mcs"
    enc = tmp_path / "c.msc"
    out = tmp_path / "c.mcs"
    assert run(["gen", "--aspects", "3,3", "--p-edge", "0/1", "--seed", "0",
                "-o", str(src)]) == 0
    assert run(["encode-snapshot", str(src), "--couplings", "-o", str(enc)]) == 0
    assert run(["decode-snapshot", str(enc), "-o", str(out)]) == 0
    assert read_mcs(out.read_bytes()).edge_count() == 6


def test_analyze_empty_and_complete(tmp_path, capsys):
    shape = CompanionTuple((3, 2))
    empty = tmp_path / "empty.mcs"
    empty.write_bytes(write_mcs(SimpleMag(shape)))
    assert run(["analyze", str(empty)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["diameter"] == "disconnected"
    assert report["degrees"] == [0] * 6

    complete = SimpleMag(shape)
    for rank in range(shape.possible_edges):
        complete.bits.set(rank)
    full = tmp_path / "full.mcs"
    full.write_bytes(write_mcs(complete))
    assert run(["analyze", str(full)]) == 0
    assert json.loads(capsys.readouterr().out)["diameter"] == 1


def test_analyze_stable_output(tmp_path, capsys):
    src = tmp_path / "g.mcs"
    assert run(["gen", "--aspects", "6,4", "--seed", "2", "-o", str(src)]) == 0
    assert run(["analyze", str(src), "--aspect", "2"]) == 0
    first = capsys.readouterr().out
    assert run(["analyze", str(src), "--aspect", "2"]) == 0
    assert capsys.readouterr().out == first
    keys = list(json.loads(first))
    assert keys == sorted(keys)


def test_info_gap_values(capsys):
    assert run(["info-gap", "--vertices", "3", "--times", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["theoreticalGapBits"] == 9
    assert run(["info-gap", "--vertices", "32", "--times", "32"]) == 0
    assert json.loads(capsys.readouterr().out)["theoreticalGapBits"] == 507904


GAP_REPORT_KEYS = [
    "compressedGeneralBits", "compressedSpatialBits", "compressor", "headerBits",
    "ratio", "spatialPositions", "theoreticalGapBits", "totalPositions",
]


def test_gap_report_json_keys(tmp_path, capsys):
    src = tmp_path / "s.mcs"
    assert run(["gen", "--aspects", "8,4", "--seed", "1", "--spatial",
                "-o", str(src)]) == 0
    assert run(["info-gap", "--vertices", "8", "--times", "4"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == GAP_REPORT_KEYS
    assert run(["compare-info", str(src), str(src)]) == 0
    assert list(json.loads(capsys.readouterr().out)) == GAP_REPORT_KEYS


def test_compare_info_same_file(tmp_path, capsys):
    src = tmp_path / "s.mcs"
    assert run(["gen", "--aspects", "8,4", "--seed", "1", "--spatial",
                "-o", str(src)]) == 0
    assert run(["compare-info", str(src), str(src), "--compressor", "lzma"]) == 0
    assert json.loads(capsys.readouterr().out)["ratio"] == 1.0


def test_compare_info_rejects_non_snapshot_spatial_file(tmp_path, capsys):
    general = tmp_path / "g.mcs"
    assert run(["gen", "--aspects", "8,4", "--seed", "2", "-o", str(general)]) == 0
    assert run(["compare-info", str(general), str(general)]) == 3
    u, v = oracles.first_non_spatial(read_mcs(general.read_bytes()))
    first, last = capsys.readouterr().err.splitlines()
    assert first == "e " + " ".join(str(c) for c in (*u, *v))
    assert json.loads(last)["error"] == "NotSnapshotError"


def readme_cli_block():
    """The magkit command lines of README's CLI section, with their comments."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.partition("#")[::2] for line in block.splitlines()
            if line.startswith("magkit ")]


def test_readme_cli_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    equalities = 0
    for command, comment in readme_cli_block():
        assert run(shlex.split(command)[1:]) == 0, (command, capsys.readouterr().err)
        for a, b in re.findall(r"(\S+) == (\S+)", comment):
            assert Path(a).read_bytes() == Path(b).read_bytes(), comment
            equalities += 1
    assert equalities == 2


def test_convert_roundtrip(tmp_path):
    src = tmp_path / "g.mcs"
    txt = tmp_path / "g.magt"
    back = tmp_path / "g2.mcs"
    assert run(["gen", "--aspects", "7,3", "--seed", "9", "-o", str(src)]) == 0
    assert run(["convert", str(src), "-o", str(txt)]) == 0
    assert run(["convert", str(txt), "-o", str(back)]) == 0
    assert src.read_bytes() == back.read_bytes()


def test_gen_and_decode_write_magt_by_extension(tmp_path):
    # A .magt output path gets text: the bytes `convert` makes of the .mcs;
    # encode-snapshot reads either file to the same .msc.
    gen = ["gen", "--aspects", "4,3", "--seed", "1", "--spatial", "-o"]
    msc = tmp_path / "g.msc"
    assert run(gen + [str(tmp_path / "g.mcs")]) == 0
    assert run(gen + [str(tmp_path / "g.magt")]) == 0
    assert run(["encode-snapshot", str(tmp_path / "g.mcs"), "-o", str(msc)]) == 0
    from_magt = tmp_path / "g.magt.msc"
    assert run(["encode-snapshot", str(tmp_path / "g.magt"), "-o", str(from_magt)]) == 0
    assert from_magt.read_bytes() == msc.read_bytes()
    assert run(["decode-snapshot", str(msc), "-o", str(tmp_path / "d.mcs")]) == 0
    assert run(["decode-snapshot", str(msc), "-o", str(tmp_path / "d.magt")]) == 0
    for name in ("g", "d"):
        converted = tmp_path / f"{name}.converted.magt"
        assert run(["convert", str(tmp_path / f"{name}.mcs"), "-o", str(converted)]) == 0
        assert (tmp_path / f"{name}.magt").read_bytes() == converted.read_bytes()
    assert run(["analyze", str(tmp_path / "d.magt")]) == 0


@pytest.mark.parametrize("command", ["gen", "encode-snapshot", "decode-snapshot"])
def test_command_help_names_magt(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run([command, "--help"])
    assert exit_info.value.code == 0
    assert ".magt" in capsys.readouterr().out


def test_command_list_names_magt_for_gen_and_decode(capsys):
    with pytest.raises(SystemExit):
        run(["--help"])
    lines = capsys.readouterr().out.splitlines()
    for command in ("gen", "decode-snapshot"):
        assert any(line.split()[:1] == [command] and ".magt" in line for line in lines)


def test_convert_header_only_magt(tmp_path):
    txt = tmp_path / "empty.magt"
    txt.write_text("mag 2 3 2\n", encoding="utf-8")
    out = tmp_path / "empty.mcs"
    assert run(["convert", str(txt), "-o", str(out)]) == 0
    assert read_mcs(out.read_bytes()).edge_count() == 0


def test_convert_duplicate_edge_exit_2(tmp_path, capsys):
    txt = tmp_path / "dup.magt"
    txt.write_text("mag 2 3 2\ne 0 0 1 0\ne 0 0 1 0\n", encoding="utf-8")
    assert run(["convert", str(txt), "-o", str(tmp_path / "x.mcs")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DuplicateEdgeError"


def test_convert_unknown_extension_exit_2(tmp_path, capsys):
    src = tmp_path / "g.mcs"
    assert run(["gen", "--aspects", "3,2", "--seed", "1", "-o", str(src)]) == 0
    assert run(["convert", str(src), "-o", str(tmp_path / "g.txt")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ArgumentError"
    assert not (tmp_path / "g.txt").exists()
    # the extension is checked before the input is read
    assert run(["convert", str(tmp_path / "missing.mcs"), "-o", str(tmp_path / "x.txt")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ArgumentError"


def test_missing_file_exit_1(tmp_path, capsys):
    assert run(["analyze", str(tmp_path / "nope.mcs")]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"


def test_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.mcs"
    bad.write_bytes(b"JUNKJUNK")
    assert run(["analyze", str(bad)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "BadMagicError"


def test_binary_junk_magt_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.magt"
    bad.write_bytes(b"\xff\xfe\x00junk")
    assert run(["analyze", str(bad)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_unknown_compressor_exit_2(tmp_path, capsys):
    src = tmp_path / "s.mcs"
    assert run(["gen", "--aspects", "4,2", "--seed", "1", "--spatial",
                "-o", str(src)]) == 0
    with pytest.raises(SystemExit) as info:
        run(["compare-info", str(src), str(src), "--compressor", "nope"])
    assert info.value.code == 2
    assert "zlib" in capsys.readouterr().err


def test_report_out_flag(tmp_path):
    src = tmp_path / "g.mcs"
    dst = tmp_path / "report.json"
    assert run(["gen", "--aspects", "4,3", "--seed", "4", "-o", str(src)]) == 0
    assert run(["analyze", str(src), "--out", str(dst)]) == 0
    assert json.loads(dst.read_text(encoding="utf-8"))["shape"] == [4, 3]


def json_bytes(document):
    return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode()


def magt_bytes(g):
    return write_magt(g).encode()


# command -> (argv run in the test's directory, the expected bytes of the
# last argument as a function of the MAG in g.mcs)
TEXT_OUTPUTS = {
    "gen": (["gen", "--aspects", "4,3", "--seed", "2", "--spatial", "-o", "out.magt"],
            magt_bytes),
    "convert": (["convert", "g.mcs", "-o", "out.magt"], magt_bytes),
    "decode-snapshot": (["decode-snapshot", "g.msc", "-o", "out.magt"], magt_bytes),
    "analyze": (["analyze", "g.mcs", "--aspect", "2", "--out", "out.json"],
                lambda g: json_bytes(topo_report(g, reachability_aspect=2))),
    "info-gap": (["info-gap", "--vertices", "3", "--times", "2", "--out", "out.json"],
                 lambda g: json_bytes(compute_gap(3, 2).to_json_dict())),
}


@pytest.mark.parametrize("command", sorted(TEXT_OUTPUTS))
def test_text_outputs_are_utf8_with_newline_ends(tmp_path, command):
    # Under warn_default_encoding a text write that falls back on the
    # locale's encoding warns, and -W error turns that into a failed run; the
    # file holds the same bytes on every platform.
    argv, expected = TEXT_OUTPUTS[command]
    assert run(["gen", "--aspects", "4,3", "--seed", "2", "--spatial",
                "-o", str(tmp_path / "g.mcs")]) == 0
    assert run(["encode-snapshot", str(tmp_path / "g.mcs"), "-o", str(tmp_path / "g.msc")]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "magkit.cli", *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, check=False,
    )
    assert (result.returncode, result.stderr) == (0, b"")
    g = read_mcs((tmp_path / "g.mcs").read_bytes())
    assert (tmp_path / argv[-1]).read_bytes() == expected(g)


def test_text_format(tmp_path, capsys):
    src = tmp_path / "g.mcs"
    assert run(["gen", "--aspects", "4,3", "--seed", "4", "-o", str(src)]) == 0
    assert run(["analyze", str(src), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "diameter:" in out
