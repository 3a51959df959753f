"""Each workload's input set-up, and the probe that times one set-up.

    python3 perfbench/setups.py SRC WORKLOAD SEED DIR SHAPE

The probe runs in a fresh interpreter. It imports magkit from the source
tree SRC, builds the workload's inputs for SEED and SHAPE (comma-separated
sizes) in DIR through magkit, and prints the seconds from just before
`import magkit` to the end of the set-up. This module imports only the
standard library, so whatever magkit loads (numpy included) is loaded
inside the timed window, as it is for a user.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# Generator keys of one run: seed n uses n*4 + k for its k-th input.
KEYS_PER_SEED = 4


class Inputs:
    """A workload's seed, scratch directory and shape, and the magkit
    commands that build its inputs there."""

    def __init__(self, seed: int, dir: Path, shape: tuple[int, ...]):
        self.seed = seed
        self.dir = dir
        self.shape = shape
        self.cli_span = None  # set when traced: (span name, fn) -> fn()

    def key(self, k: int) -> str:
        return str(self.seed * KEYS_PER_SEED + k)

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def cli(self, name: str, *argv: str) -> None:
        from magkit import cli

        run = lambda: cli.main(list(argv))
        code = self.cli_span(f"cli.{name}", run) if self.cli_span else run()
        if code != 0:
            raise RuntimeError(f"magkit {argv[0]} exited {code}")

    def gen(self, out: str, key: int, shape=None, spatial=False) -> None:
        aspects = ",".join(str(n) for n in (shape or self.shape))
        argv = ["gen", "--aspects", aspects, "--p-edge", "1/2", "--seed", self.key(key)]
        self.cli("gen", *argv, *(["--spatial"] if spatial else []), "-o", self.path(out))


def interval_pairs(n_t: int) -> tuple[tuple[int, int], ...]:
    """The snapshot workload's interval map: steps of 2, (0, 2), (2, 4), ...
    up to the last instant that fits."""
    return tuple((t, t + 2) for t in range(0, n_t - 2, 2))


def analyze_dense(w: Inputs) -> None:
    w.gen("g.mcs", 0)


def analyze_tvg(w: Inputs) -> None:
    """A snapshot TVG that carries every sequential coupling: spatial edges
    with p = 1/2 plus all couplings."""
    w.gen("spatial.mcs", 0, spatial=True)
    w.cli("encode_snapshot", "encode-snapshot", w.path("spatial.mcs"),
          "--couplings", "-o", w.path("spatial.msc"))
    w.cli("decode_snapshot", "decode-snapshot", w.path("spatial.msc"),
          "-o", w.path("g.mcs"))


def interchange(w: Inputs) -> None:
    w.gen("g.mcs", 0)


def snapshot(w: Inputs) -> None:
    """The contracted side of the interval map, held in memory."""
    from magkit import formats

    n_v, n_t = w.shape
    w.gen("contracted.mcs", 2, shape=(n_v, len(interval_pairs(n_t))), spatial=True)
    w.contracted = formats.read_mcs(Path(w.path("contracted.mcs")).read_bytes())


SETUPS = {"analyze-dense": analyze_dense, "analyze-tvg": analyze_tvg,
          "interchange": interchange, "snapshot": snapshot}


def main(argv: list[str]) -> int:
    src, name, seed, dir, shape = argv
    sys.path.insert(0, src)
    inputs = Inputs(int(seed), Path(dir), tuple(int(n) for n in shape.split(",")))
    start = time.perf_counter()
    import magkit  # noqa: F401  (the import is part of the set-up)

    SETUPS[name](inputs)
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
