"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--label L]
        [--compare OTHER_LABEL]

Runs run.py once per seed, one after another, for BENCHMARK.json's
run_seconds, and prints for every metric
the median, the quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1)
as a share of the median, and that share against a third of the metric's
bound in BENCHMARK.json. The runs are kept in .perfbench/results/<label>-<workload>.json;
--compare prints the change of each median against an earlier label.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench" / "results"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--label", default="set1")
    parser.add_argument("--compare", default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=600)
        *notes, last = done.stdout.splitlines()
        result = json.loads(last)
        result["seed"], result["wall_s"] = seed, time.perf_counter() - start
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {result['wall_s']:.1f} s wall, attempted {result['attempted']}, "
              f"failed {result['failed']}, {values}\n  {notes[0]}", flush=True)

    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.label}-{args.workload}.json").write_text(json.dumps(runs, indent=1))
    earlier = None
    if args.compare:
        earlier = json.loads((RESULTS / f"{args.compare}-{args.workload}.json").read_text())
    for name, bound in bounds.items():
        q1, median, q3 = summary([r["metrics"][name]["value"] for r in runs])
        line = (f"{args.workload} {name}: median {median:.4f}, Q1 {q1:.4f}, Q3 {q3:.4f}, "
                f"spread {(q3 - q1) / median:.3f} (bound {bound}, a third {bound / 3:.3f})")
        if earlier:
            before = statistics.median(r["metrics"][name]["value"] for r in earlier)
            line += f"; median vs {args.compare}: {(median - before) / before:+.3f}"
        print(line)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload} failed share per run: {sorted(shares)}; "
          f"mean wall {statistics.mean(r['wall_s'] for r in runs):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
