"""Peak resident memory and wall time of each phase of a benchmark round.

    python3 tools/phase_rss.py WORKLOAD SEED [--rounds N]

Runs N rounds (default 2) of one benchmark workload (perfbench/workloads.py)
in this process through perfbench.run.run_round itself, untraced, and gives
the first round's outputs perfbench's output checks, as the benchmark does.
Shims note the process's peak RSS so far (`ru_maxrss`, the figure behind
the benchmark's `peak_rss_mb`) and the call's wall time after each call
of perfbench's `simulate` and of tenseg.cli.main (estimate, evaluate);
inside the simulate phase, after each of the four calls it makes:
simulator.generate, simulator.corrupt, logio.write_sensor_log and
logio.write_trajectory; and inside the estimate phase, after the CLI's
read_sensor_log, so that the estimate row splits into the log read (the
read_sensor_log row) and the filter run with the pose output (the
estimate row).  So a change in `peak_rss_mb` or `simulate_s` can be
traced to the call that moved it.

Each row gives the phase's peak and the median wall time of its calls
in that round (evaluate runs several times a round).  A call's time
includes the calls made inside it: simulate's its four calls', and
estimate's its log read's.  The `simulate_rest` row is the simulate
time spent outside those four calls, which is the benchmark's listing of
the ground-truth frames for write_trajectory; it has no peak of its own,
which shows in the write_trajectory row.  After the rounds, the rows
marked `all` give the median time of each phase's calls over every
round.  Outputs go to a temporary directory.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, as `python3 -m perfbench` sets before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import perfbench.run as bench  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from tenseg import cli, logio, simulator  # noqa: E402

# Each call is a phase named after the function; cli.main's phase is its
# command (estimate, evaluate).  The four simulator and logio calls are
# the ones perfbench's `simulate` makes; cli binds its own logio names, so
# patching logio's catches only those, and read_sensor_log is patched
# where cmd_estimate looks it up.
NOTED = ((bench, "simulate"), (cli, "main"),
         (simulator, "generate"), (simulator, "corrupt"),
         (logio, "write_sensor_log"), (logio, "write_trajectory"),
         (cli, "read_sensor_log"))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# the calls perfbench's `simulate` makes
SIMULATE_CALLS = ("generate", "corrupt", "write_sensor_log",
                  "write_trajectory")


def run(wl, seed, rounds, out_dir):
    """Yield (round, phase, peak RSS in MB, median wall time in ms) after
    each phase, then ("all", phase, None, median over every round); the
    peak is None on the simulate_rest rows and the time on the start
    row."""
    phases = {}   # phase -> peak RSS after its last call this round
    walls = {}    # phase -> wall time of each call this round [s]
    every = {}    # phase -> wall time of each call, every round [s]

    def noted(name, fn):
        def shim(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            wall = time.perf_counter() - t0
            phase = args[0][0] if name == "main" else name
            phases[phase] = peak_rss_mb()
            walls.setdefault(phase, []).append(wall)
            return out
        return shim

    def rows(k):
        for phase, mb in phases.items():
            yield k, phase, mb, walls[phase]
            if phase == "simulate":
                rest = [sum(walls["simulate"])
                        - sum(sum(walls[name]) for name in SIMULATE_CALLS)]
                yield k, "simulate_rest", None, rest

    originals = [(owner, name, getattr(owner, name)) for owner, name in NOTED]
    for owner, name, fn in originals:
        setattr(owner, name, noted(name, fn))
    try:
        yield 0, "start", peak_rss_mb(), None
        for k in range(1, rounds + 1):
            phases.clear()
            walls.clear()
            rnd = bench.run_round(wl, seed, out_dir, traced=False)
            if rnd.failed or rnd.digests is None:
                raise SystemExit(f"round {k}: {rnd.failed} failed operations")
            if k == 1:
                t0 = time.perf_counter()
                bench.check_outputs(wl, seed, out_dir, rnd)
                phases["checks"] = peak_rss_mb()
                walls["checks"] = [time.perf_counter() - t0]
            for _, phase, mb, times in rows(k):
                every.setdefault(phase, []).extend(times)
                yield k, phase, mb, statistics.median(times) * 1e3
            rnd.inputs = None   # the benchmark drops each round's inputs
        for phase, times in every.items():
            yield "all", phase, None, statistics.median(times) * 1e3
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory(prefix="phase_rss-") as tmp:
        print(f"{'round':>5}  {'phase':<16} peak_rss_mb  wall_ms")
        for k, phase, mb, ms in run(WORKLOADS[args.workload], args.seed,
                                    args.rounds, Path(tmp)):
            mb = "-" if mb is None else f"{mb:.1f}"
            ms = "-" if ms is None else f"{ms:.1f}"
            print(f"{k:>5}  {phase:<16} {mb:>11} {ms:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
