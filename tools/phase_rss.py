"""Peak resident memory after each phase of a benchmark round.

    python3 tools/phase_rss.py WORKLOAD SEED [--rounds N]

Runs N rounds (default 2) of one benchmark workload (perfbench/workloads.py)
in this process through perfbench.run.run_round itself, untraced, and gives
the first round's outputs perfbench's output checks, as the benchmark does.
Shims note the process's peak RSS so far (`ru_maxrss`, the figure behind
the benchmark's `peak_rss_mb`) after each call of perfbench's `simulate`
and of tenseg.cli.main (estimate, evaluate); inside the simulate phase,
after each of the four calls it makes: simulator.generate,
simulator.corrupt, logio.write_sensor_log and logio.write_trajectory;
and inside the estimate phase, after the CLI's read_sensor_log, so that
the estimate row splits into the log read (the read_sensor_log row) and
the filter run with the pose output (the estimate row).  So a change in
`peak_rss_mb` can be traced to the call that moved it.  Outputs go to a
temporary directory.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
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


def run(wl, seed, rounds, out_dir):
    """Yield (round, phase, peak RSS in MB) after each phase."""
    phases = {}   # phase -> peak RSS after its last call this round

    def noted(name, fn):
        def shim(*args, **kwargs):
            out = fn(*args, **kwargs)
            phases[args[0][0] if name == "main" else name] = peak_rss_mb()
            return out
        return shim

    originals = [(owner, name, getattr(owner, name)) for owner, name in NOTED]
    for owner, name, fn in originals:
        setattr(owner, name, noted(name, fn))
    try:
        yield 0, "start", peak_rss_mb()
        for k in range(1, rounds + 1):
            phases.clear()
            rnd = bench.run_round(wl, seed, out_dir, traced=False)
            if rnd.failed or rnd.digests is None:
                raise SystemExit(f"round {k}: {rnd.failed} failed operations")
            for phase, mb in phases.items():
                yield k, phase, mb
            if k == 1:
                bench.check_outputs(wl, seed, out_dir, rnd)
                yield k, "checks", peak_rss_mb()
            rnd.inputs = None   # the benchmark drops each round's inputs
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
        print(f"{'round':>5}  {'phase':<16} peak_rss_mb")
        for k, phase, mb in run(WORKLOADS[args.workload], args.seed,
                                args.rounds, Path(tmp)):
            print(f"{k:>5}  {phase:<16} {mb:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
