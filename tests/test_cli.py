"""CLI contracts: determinism, exit codes, pipeline round trips."""

import json

import pytest

from magkit.cli import main
from magkit.core import CompanionTuple, SimpleMag
from magkit.formats import read_mcs, write_mcs


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


def test_compare_info_same_file(tmp_path, capsys):
    src = tmp_path / "s.mcs"
    assert run(["gen", "--aspects", "8,4", "--seed", "1", "--spatial",
                "-o", str(src)]) == 0
    assert run(["compare-info", str(src), str(src), "--compressor", "lzma"]) == 0
    assert json.loads(capsys.readouterr().out)["ratio"] == 1.0


def test_convert_roundtrip(tmp_path):
    src = tmp_path / "g.mcs"
    txt = tmp_path / "g.magt"
    back = tmp_path / "g2.mcs"
    assert run(["gen", "--aspects", "7,3", "--seed", "9", "-o", str(src)]) == 0
    assert run(["convert", str(src), "-o", str(txt)]) == 0
    assert run(["convert", str(txt), "-o", str(back)]) == 0
    assert src.read_bytes() == back.read_bytes()


def test_convert_header_only_magt(tmp_path):
    txt = tmp_path / "empty.magt"
    txt.write_text("mag 2 3 2\n")
    out = tmp_path / "empty.mcs"
    assert run(["convert", str(txt), "-o", str(out)]) == 0
    assert read_mcs(out.read_bytes()).edge_count() == 0


def test_convert_duplicate_edge_exit_2(tmp_path, capsys):
    txt = tmp_path / "dup.magt"
    txt.write_text("mag 2 3 2\ne 0 0 1 0\ne 0 0 1 0\n")
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
    assert json.loads(dst.read_text())["shape"] == [4, 3]


def test_text_format(tmp_path, capsys):
    src = tmp_path / "g.mcs"
    assert run(["gen", "--aspects", "4,3", "--seed", "4", "-o", str(src)]) == 0
    assert run(["analyze", str(src), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "diameter:" in out
