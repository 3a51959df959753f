"""magkit benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It benchmarks the magkit source tree next to this directory (../src) and
works in ../.perfbench, which it removes when done. A run times SETUP_REPS
set-ups of its inputs, sets them up once more in this process, then
repeats whole passes of the workload until
`--seconds` have gone by, then checks every output of the passes. The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced:
  pass_s       median wall time of a pass;
  peak_rss_mb  peak resident set of this process over set-up and passes,
               read before the checks' own computations start;
  setup_s      median of SETUP_REPS set-ups, each one fresh interpreter
               that imports magkit and builds the inputs through it
               (setups.py), before any benchmark module loads numpy.
With --trace 1 they are the per-layer figures of tracing.py, taken over
rounds of one untraced and one traced pass.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads, so that all load comes from
# this one thread of this one process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBE = Path(__file__).resolve().parent / "setups.py"
SETUP_REPS = 11


def setup_seconds(workload) -> float:
    """Seconds one fresh interpreter takes to import magkit and build the
    workload's inputs."""
    shape = ",".join(str(n) for n in workload.shape)
    done = subprocess.run(
        [sys.executable, str(SETUP_PROBE), str(SRC), workload.name, str(workload.seed),
         str(workload.dir), shape],
        capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def one_pass(workload, tracer=None):
    """Run one pass: (seconds, results, output fingerprints, trace scope)."""
    import workloads

    gc.collect()
    if tracer:
        tracer.begin()
    results = {}
    start = time.perf_counter()
    for name, call in workload.ops():
        results[name] = call()
    seconds = time.perf_counter() - start
    scope = tracer.end() if tracer else None
    prints = {name: workloads.fingerprint(r) for name, r in results.items()}
    return seconds, results, prints, scope


def run_passes(workload, seconds: float):
    """Whole passes until `seconds` have gone by (at least one): the pass
    times, the last pass's results and each pass's output fingerprints."""
    times, prints = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        results = None  # free the previous pass's outputs before the next pass runs
        elapsed, results, fingerprints, _ = one_pass(workload)
        times.append(elapsed)
        prints.append(fingerprints)
    return times, results, prints


@contextlib.contextmanager
def tracing_on(tracer, workload):
    tracer.install()
    workload.cli_span = tracer.span
    try:
        yield
    finally:
        tracer.uninstall()
        workload.cli_span = None


def tally(workload, results, prints) -> tuple[int, int, list[str]]:
    """(attempted, failed, names of failed checks) over all passes.

    The checks judge the last pass; an earlier pass's operation fails too
    when its output differs from the last pass's."""
    checks = workload.check(results)
    failed_checks = [name for name, _, ok in checks if not ok]
    bad_ops = {op for _, op, ok in checks if not ok}
    failed = sum(op in bad_ops or p[op] != prints[-1][op] for p in prints for op in p)
    return sum(len(p) for p in prints), failed, failed_checks


def untraced(workload, seconds: float) -> tuple[dict, tuple]:
    setups = [setup_seconds(workload) for _ in range(SETUP_REPS)]
    workload.setup()
    times, results, prints = run_passes(workload, seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcome = tally(workload, results, prints)
    print(f"{workload.name}: pass_s median of {len(times)} passes "
          f"({', '.join(f'{t:.3f}' for t in times)} s); setup_s median of {SETUP_REPS} "
          f"({', '.join(f'{t:.3f}' for t in setups)} s); BLAS threads {BLAS_THREADS}")
    return {
        "pass_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }, outcome


def traced(workload, seconds: float) -> tuple[dict, tuple]:
    import tracing

    tracer = tracing.Tracer()
    with tracing_on(tracer, workload):
        tracer.begin()
        workload.setup()
        setup = tracer.end()
    # Rounds of one untraced and one traced pass, so that both see the
    # machine in the same state; the difference is the tracing overhead.
    untraced_times, times, prints, scopes = [], [], [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        elapsed, _, fingerprints, _ = one_pass(workload)
        untraced_times.append(elapsed)
        prints.append(fingerprints)
        with tracing_on(tracer, workload):
            elapsed, results, fingerprints, scope = one_pass(workload, tracer)
        times.append(elapsed)
        prints.append(fingerprints)
        scopes.append(scope)
    figures = tracing.layer_metrics(setup, scopes)
    for name, call in tracing.probe_calls(setup, scopes).items():
        figures[f"{name}_peak_mb"] = tracing.peak_mib(*call) if call else 0.0
    shape, bits = workload.main_input()
    ranks = bits.nonzero()[0]
    sample = ranks[:: max(1, ranks.size // tracing.SCALAR_SAMPLE)].tolist()
    from magkit import formats
    from magkit.core import CompanionTuple

    figures["core.edges_s"] = (tracing.edges_s(formats.read_mcs(workload.read(workload.edges_input)))
                               if workload.edges_input else 0.0)
    figures["core.edge_rank_us"], figures["core.edge_from_rank_us"] = tracing.scalar_us(
        CompanionTuple(shape), sample)
    figures["positions"], figures["present_edges"] = bits.size, len(ranks)
    traced_s = statistics.median(times)
    untraced_s = statistics.median(untraced_times)
    layers = [sum(v for k, v in s.self_s.items() if not k.startswith("cli.")) for s in scopes]
    # The share of each traced pass its layer self times cover; the untraced
    # partner of a pass differs from it by pass-to-pass noise, so it is
    # printed beside the share but is not its base.
    share = statistics.median(100 * s / t for s, t in zip(layers, times))
    figures["trace.untraced_pass_s"] = untraced_s
    figures["trace.traced_pass_s"] = traced_s
    figures["trace.layer_share_pct"] = share
    print(f"{workload.name}: {len(times)} rounds of an untraced and a traced pass; "
          f"layer self times {statistics.median(layers):.3f} s, {share:.1f} % of the traced pass "
          f"and {100 * statistics.median(layers) / untraced_s:.1f} % of the untraced one; "
          f"untraced pass {untraced_s:.3f} s, traced pass {traced_s:.3f} s, "
          f"gap {traced_s - untraced_s:+.3f} s; cli residual {figures['cli.residual_s']:.3f} s")
    units = dict(tracing.PER_LAYER)
    metrics = {name: {"value": figures[name], "unit": units[name]} for name in units}
    return metrics, tally(workload, results, prints)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "magkit" / "__init__.py").is_file():
        print(f"no magkit source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import magkit
    import workloads

    if not Path(magkit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported magkit from {magkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        parser.error("seed must be non-negative")

    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        measure = traced if args.trace else untraced
        metrics, (attempted, failed, failed_checks) = measure(workload, args.seconds)
    finally:
        shutil.rmtree(work)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if failed_checks:
        print(f"failed checks: {', '.join(failed_checks)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
