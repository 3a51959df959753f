"""Per-layer figures for traced runs, measured from outside magkit.

`Tracer.install` replaces magkit's public functions, at every name that
binds them, with wrappers that record one span per call; magkit itself is
not changed. A span's self time is its duration less the spans it
encloses, so the self times of a pass add up to the time spent in spans.
Commands run inside a `cli.<command>` span that the workload opens: its
full duration is the command's time and its self time (argument parsing,
file I/O, JSON output) is summed into `cli.residual_s`.

Times are taken per scope: each pass, and one set-up. A layer's figure is
its median self time per pass; a layer that no pass calls reports its
self time in the set-up instead. Peak memory per call is measured in a
forked child that repeats the call, so no allocation hook slows the
traced passes. The scalar rank bijections and `SimpleMag.edges()` are not
wrapped, since a span per call or per yielded edge would cost more than
they do: the bijections are timed per call on a fixed sample, and `edges()`
by draining the input a pass iterates, apart from the passes. Inside a pass,
the iteration of `edges()` counts in the self time of the function that
iterates it.
"""

from __future__ import annotations

import functools
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

FUNCTIONS = {
    "topo": ["adjacency_rows", "dense_adjacency", "degree_profile", "composite_diameter",
             "common_neighbor_extremes", "non_sequential_census", "is_snapshot_like",
             "verify_non_sequential_reachability", "is_sequentially_coupled"],
    "formats": ["write_magt", "read_magt", "read_mcs", "write_mcs"],
    "randgen": ["generate"],
    "snapshot": ["encode_snapshot", "decode_snapshot", "write_msc", "read_msc",
                 "check_multiplex_couplings", "expand_intervals", "contract_intervals"],
    "kproxy": ["estimate_upper_bound"],
}
BITSTRING_METHODS = ["to_array", "from_array", "to_int", "count"]
COMMANDS = ["gen", "encode_snapshot", "decode_snapshot", "analyze", "convert_to_magt",
            "convert_to_mcs", "compare_info"]
# Calls whose peak memory is measured, by the name of the function called.
PEAKS = ["topo.common_neighbor_extremes", "topo.verify_non_sequential_reachability",
         "formats.read_magt", "randgen.generate"]
COUNTS = ["topo.failing_pairs_built", "topo.failing_pairs_reported", "formats.magt_bytes",
          "kproxy.compressed_bytes"]
SCALAR_SAMPLE = 20000
SCALAR_REPS = 5
EDGES_REPS = 3


def _span_names() -> list[str]:
    names = [f"cli.{c}" for c in COMMANDS]
    for module, functions in FUNCTIONS.items():
        names += [f"{module}.{f}" for f in functions]
    names.insert(names.index("randgen.generate") + 1, "randgen.generate_spatial")
    return names + [f"bitstring.{m}" for m in BITSTRING_METHODS]


SPANS = _span_names()

# Every per-layer metric a traced run prints, with its unit.
PER_LAYER = (
    [(f"{name}_s", "s") for name in SPANS]
    + [("cli.residual_s", "s"), ("core.edges_s", "s"), ("core.edge_rank_us", "us"),
       ("core.edge_from_rank_us", "us")]
    + [(f"{name}_peak_mb", "MiB") for name in PEAKS]
    + [(name, "count") for name in COUNTS]
    + [("positions", "count"), ("present_edges", "count")]
    + [("trace.untraced_pass_s", "s"), ("trace.traced_pass_s", "s"),
       ("trace.layer_share_pct", "%")]
)


class Scope:
    """Self times, command times, counts and probe calls of one scope."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.command_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.calls = {}  # function name -> (function, args, kwargs) of its first call


class Tracer:
    def __init__(self):
        self.scope = Scope()
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, start)

    def _close(self, name: str, start: float) -> None:
        duration = time.perf_counter() - start
        self.scope.self_s[name] += duration - self._stack.pop()
        if self._stack:
            self._stack[-1] += duration
        if name.startswith("cli."):
            self.scope.command_s[name] += duration

    def _wrap(self, name: str, fn, label=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in PEAKS:
                self.scope.calls.setdefault(name, (fn, args, kwargs))
            result = self.span(label(*args) if label else name, fn, *args, **kwargs)
            if after:
                after(self.scope.counts, result)
            return result
        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "magkit" or n.startswith("magkit.")]
        label = {"randgen.generate": lambda spec: "randgen.generate_spatial"
                 if spec.spatial_only else "randgen.generate"}
        after = {
            "topo.verify_non_sequential_reachability": _count_failing_pairs,
            "formats.write_magt": lambda c, text: c.__setitem__(
                "formats.magt_bytes", c["formats.magt_bytes"] + len(text)),
            "kproxy.estimate_upper_bound": lambda c, bits: c.__setitem__(
                "kproxy.compressed_bytes", c["kproxy.compressed_bytes"] + bits // 8),
        }
        for module_name, functions in FUNCTIONS.items():
            module = sys.modules[f"magkit.{module_name}"]
            for function in functions:
                name = f"{module_name}.{function}"
                original = getattr(module, function)
                traced = self._wrap(name, original, label.get(name), after.get(name))
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is original]:
                        self._replace(m, attr, traced)
        bitstring = sys.modules["magkit.bitstring"].BitString
        for method in BITSTRING_METHODS:
            original = bitstring.__dict__[method]
            if isinstance(original, classmethod):
                traced = classmethod(self._wrap(f"bitstring.{method}", original.__func__))
            else:
                traced = self._wrap(f"bitstring.{method}", original)
            self._replace(bitstring, method, traced)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def begin(self) -> None:
        self.scope = Scope()

    def end(self) -> Scope:
        scope, self.scope = self.scope, Scope()
        return scope


def _count_failing_pairs(counts, result) -> None:
    failures = len(result[1])
    counts["topo.failing_pairs_built"] += failures
    counts["topo.failing_pairs_reported"] += min(failures, 10)  # topo_report keeps ten


def peak_mib(fn, args, kwargs) -> float:
    """Peak resident memory one call adds, measured in a forked child.

    A forked child's peak starts at the parent's current resident set, so
    the rise of its own peak over the call is what the call allocates."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            fn(*args, **kwargs)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            os.write(write_end, repr((after - before) / 1024).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"peak-memory probe of {fn.__name__} failed")
    return float(text)


def scalar_us(shape, ranks) -> tuple[float, float]:
    """Median microseconds per edge_rank and per edge_from_rank call."""
    from magkit.core import edge_from_rank, edge_rank

    per_rank, per_from_rank = [], []
    for _ in range(SCALAR_REPS):
        start = time.perf_counter()
        pairs = [edge_from_rank(shape, r) for r in ranks]
        middle = time.perf_counter()
        for u, v in pairs:
            edge_rank(shape, u, v)
        end = time.perf_counter()
        per_from_rank.append((middle - start) / len(ranks) * 1e6)
        per_rank.append((end - middle) / len(ranks) * 1e6)
    return statistics.median(per_rank), statistics.median(per_from_rank)


def edges_s(g) -> float:
    """Median seconds to drain `g.edges()`."""
    times = []
    for _ in range(EDGES_REPS):
        start = time.perf_counter()
        for _ in g.edges():
            pass
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_metrics(setup: Scope, passes: list[Scope]) -> dict[str, float]:
    """Span, command and count figures: median per pass, else per set-up."""
    def figure(field: str, name: str):
        values = [getattr(s, field).get(name, 0) for s in passes]
        if any(values):
            return statistics.median(values)
        return getattr(setup, field).get(name, 0)

    out = {f"{name}_s": figure("command_s" if name.startswith("cli.") else "self_s", name)
           for name in SPANS}
    out["cli.residual_s"] = statistics.median(
        sum(v for k, v in s.self_s.items() if k.startswith("cli.")) for s in passes)
    out.update({name: int(figure("counts", name)) for name in COUNTS})
    return out


def probe_calls(setup: Scope, passes: list[Scope]) -> dict[str, tuple]:
    """The call to repeat for each peak figure: from a pass, else the set-up."""
    return {name: (passes[-1].calls.get(name) or setup.calls.get(name)) for name in PEAKS}
