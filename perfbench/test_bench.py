"""Self-test of the benchmark at small shapes: python3 -m pytest -q perfbench

Every workload runs a pass whose outputs pass all checks, and each check is
shown to reject one corrupted output (a flipped bit, an altered report
field). The runner prints exactly the metrics BENCHMARK.json names, and it
refuses to run without a magkit source tree.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name: str, dir: Path, seed: int = 3) -> workloads.Workload:
    dir.mkdir(exist_ok=True)
    return workloads.WORKLOADS[name](seed, dir, workloads.SMALL_SHAPES[name])


def one_pass(workload) -> dict:
    return run.one_pass(workload)[1]


def failed_checks(workload, results) -> set[str]:
    return {name for name, _, ok in workload.check(results) if not ok}


def mcs_header(data: bytes) -> int:
    order, pos = ref.read_varint(data, 4)
    for _ in range(order):
        _, pos = ref.read_varint(data, pos)
    return pos


def msc_header(data: bytes) -> int:
    _, pos = ref.read_varint(data, 4)
    _, pos = ref.read_varint(data, pos)
    return pos + 1


def flip(path: Path, bit: int, header=mcs_header) -> None:
    """Flip payload bit `bit` (MSB-first) of an .mcs or .msc file."""
    data = bytearray(path.read_bytes())
    data[header(data) + bit // 8] ^= 0x80 >> (bit % 8)
    path.write_bytes(bytes(data))


def clear_payload(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:mcs_header(data)] + bytes(len(data) - mcs_header(data)))


def flip_mag(g, bit: int) -> None:
    g.bits.payload[bit // 8] ^= 0x80 >> (bit % 8)


def alter(value):
    """A value of the same kind that differs from `value`."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return [alter(value[0])] + value[1:] if value else [0]
    if isinstance(value, dict):
        key = sorted(value)[0] if value else "x"
        return {**value, key: alter(value.get(key, 0))}
    return 0


def edit_report(path: Path, edit) -> None:
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def set_field(*keys):
    def edit(report):
        for key in keys[:-1]:
            report = report[key]
        report[keys[-1]] = alter(report[keys[-1]])
    return edit


def alter_magt(path: Path) -> None:
    lines = path.read_text().split("\n")
    tokens = lines[-2].split()
    tokens[-1] = str(int(tokens[-1]) ^ 1)
    lines[-2] = " ".join(tokens)
    path.write_text("\n".join(lines))


# check name -> corruption of a pass's outputs (workload, results) that it must reject
CORRUPT = {
    "report.keys": lambda w, r: edit_report(r["analyze"], lambda rep: rep.update(extra=1)),
    "tvg.sequentiallyCoupled": lambda w, r: edit_report(
        r["analyze"], set_field("sequentiallyCoupled")),
    "tvg.census": lambda w, r: edit_report(r["analyze"], set_field("interdimensionalCensus")),
    "tvg.failingPairCount": lambda w, r: edit_report(
        r["analyze"], set_field("nonSequentialReachability", "failingPairCount")),
    "magt.edges": lambda w, r: alter_magt(r["convert-to-magt"]),
    "mcs.roundtrip": lambda w, r: flip(r["convert-to-mcs"], 0),
    # rank nV - 1 is the pair (0, nV): node 0 at instants 0 and 1, not spatial
    "gen.spatial-only": lambda w, r: flip(r["gen-spatial"], w.shape[0] - 1),
    "gen.density": lambda w, r: clear_payload(r["gen-general"]),
    "msc.blocks": lambda w, r: flip(r["encode"], 0, msc_header),
    "msc.roundtrip": lambda w, r: flip(r["decode"], 0),
    "msc.blocks-couplings": lambda w, r: flip(r["encode-couplings"], 0, msc_header),
    "msc.couplings": lambda w, r: flip(r["decode-couplings"], w.shape[0] - 1),
    "info.sizes": lambda w, r: edit_report(r["compare-info"], set_field("compressedGeneralBits")),
    "read.coupled": lambda w, r: flip_mag(r["read-coupled"], 0),
    "coupled.sequential": lambda w, r: r.update({"is-sequentially-coupled": (False, None)}),
    "coupled.multiplex": lambda w, r: r.update(
        {"check-multiplex": dataclasses.replace(r["check-multiplex"], categorical=True)}),
    # rank 0 is a same-instant pair, which an expansion by steps of 2 never holds
    "intervals.expand": lambda w, r: flip_mag(r["expand-intervals"], 0),
    "intervals.roundtrip": lambda w, r: flip_mag(r["contract-intervals"], 0),
}


def corruption(name: str):
    if name in CORRUPT:
        return CORRUPT[name]
    key = name.removeprefix("report.")
    return lambda w, r: edit_report(r["analyze"], set_field(key))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_pass_and_reject_corruption(name, tmp_path):
    workload = small(name, tmp_path / "w")
    workload.setup()
    results = one_pass(workload)
    checks = [check for check, _, _ in workload.check(results)]
    assert failed_checks(workload, results) == set()
    for check in checks:
        results = one_pass(workload)
        corruption(check)(workload, results)
        assert check in failed_checks(workload, results), check


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    def main_input(seed, dir):
        workload = small(name, tmp_path / dir, seed)
        workload.setup()
        one_pass(workload)
        return workload.read(workload.main)

    assert main_input(3, "a") == main_input(3, "b")
    assert main_input(3, "a") != main_input(4, "c")


def test_setup_probe_loads_numpy_inside_its_timed_window(tmp_path):
    # Importing setups.py must load no numpy, so that the probe's timed
    # window holds every import a user's set-up pays for.
    probe = ("import sys; sys.path.insert(0, 'perfbench'); import setups; "
             "print('numpy' in sys.modules, 'magkit' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.split() == ["False", "False"]
    # The probe builds the same input as the set-up in this process.
    probed = small("analyze-tvg", tmp_path / "probe")
    assert run.setup_seconds(probed) > 0
    local = small("analyze-tvg", tmp_path / "local")
    local.setup()
    assert probed.read(probed.main) == local.read(local.main)


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == tracing.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_reports_every_metric(trace, tmp_path, capsys):
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    for name in workloads.WORKLOADS:
        measure = run.traced if trace else run.untraced
        metrics, (attempted, failed, failed_names) = measure(small(name, tmp_path / name), 0)
        assert attempted >= 1 and failed == 0 and failed_names == []
        assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in wanted}
    capsys.readouterr()


def test_refuses_to_run_without_magkit(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snapshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
