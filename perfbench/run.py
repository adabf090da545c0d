"""Run one workload for a fixed time and print its metrics as JSON.

Each round generates the workload's inputs through the simulator's
public API, then runs `tenseg estimate` and `tenseg evaluate`
in-process through tenseg.cli.main.  Rounds repeat while they fit in
--seconds; timings are the median over the run's calls.  With --trace 1,
untraced and traced rounds alternate, and the per-layer numbers come
from the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tenseg import cli, logio, simulator

from . import checks
from .trace import Tracer
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = Path(__file__).resolve().parent / "runs"


def measure_setup():
    """Wall time of a fresh interpreter importing tenseg.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tenseg.cli"], env=env,
                   check=True)
    return time.perf_counter() - t0


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def simulate(wl, seed, out_dir):
    """The calls `tenseg simulate` makes, with the workload's SimConfig."""
    sim = simulator.generate(simulator.SimConfig(**wl.sim))
    noisy = simulator.corrupt(sim, seed=seed, cable_noise=wl.cable_noise,
                              chatter=wl.chatter)
    logio.write_sensor_log(out_dir / "sensors.jsonl", noisy.imu, noisy.cables,
                           noisy.contacts, seed, wl.config)
    logio.write_trajectory(out_dir / "ground_truth.tum",
                           [f.timestamp for f in sim.frames],
                           [f.position for f in sim.frames],
                           [f.rotation for f in sim.frames])
    return noisy


# `tenseg evaluate` takes 20-300 ms, too short for one sample per round
# to be steady on a noisy host, so each round runs it this many times on
# the same files.
EVALUATE_REPEATS = 5


class Round:
    """Timings, outputs and failures of one simulate/estimate/evaluate pass."""

    def __init__(self, traced):
        self.traced = traced
        self.times = {"simulate_s": [], "estimate_s": [], "evaluate_s": []}
        self.failed = 0
        self.attempted = 2 + EVALUATE_REPEATS
        self.layers = None
        self.spans = None
        self.digests = None
        self.inputs = None


def run_round(wl, seed, out_dir, traced):
    """Simulate, estimate, then evaluate EVALUATE_REPEATS times.

    When traced, the tracer covers one pass through the pipeline: the
    repeated evaluations run untraced after it.
    """
    rnd = Round(traced)
    tracer = Tracer()
    cfg_path = out_dir / "run.cfg"
    with open(cfg_path, "w") as f:
        f.writelines(f"{k} = {v}\n" for k, v in wl.config.items())
    common = ["--log-level", "WARNING", "--out-dir", str(out_dir)]

    def timed(key, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        rnd.times[key].append(time.perf_counter() - t0)
        return out

    def evaluate():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["evaluate", *common])

    rc_eval = []
    with tracer.installed() if traced else contextlib.nullcontext():
        rnd.inputs = timed("simulate_s", simulate, wl, seed, out_dir)
        rc_est = timed("estimate_s", cli.main,
                       ["estimate", *common, "--config", str(cfg_path)])
        if rc_est == 0:
            rc_eval.append(timed("evaluate_s", evaluate))
    if rc_est == 0:
        rc_eval += [timed("evaluate_s", evaluate)
                    for _ in range(EVALUATE_REPEATS - 1)]
    # every cable frame is one shape solve attempt inside estimate
    rnd.attempted += len(rnd.inputs.cables)
    solver_failures = 0
    if rc_est == 0:
        with open(out_dir / "estimate_info.json") as f:
            solver_failures = json.load(f)["solver_failures"]
    rnd.failed = ((rc_est != 0) + solver_failures
                  + EVALUATE_REPEATS - rc_eval.count(0))
    if rc_eval and all(rc == 0 for rc in rc_eval):
        rnd.digests = tuple(_digest(out_dir / name) for name in (
            "sensors.jsonl", "ground_truth.tum", "estimate.tum",
            "metrics.json"))
    if traced:
        rnd.spans = tracer.spans
        rnd.layers = tracer.layer_metrics()
        rnd.layers["inekf.solver_failures"] = solver_failures
        rnd.layers["logio.sensor_log_mb"] = (
            os.path.getsize(out_dir / "sensors.jsonl") / 2**20)
    return rnd


def check_outputs(wl, seed, out_dir, rnd):
    """Full output checks on the first completed round."""
    metrics = checks.check_metrics(out_dir)
    noisy = rnd.inputs
    checks.check_poses(out_dir, [s.timestamp for s in noisy.imu],
                       wl.calibration_duration)
    rng = np.random.default_rng(seed)
    checks.check_shapes(noisy.cables, noisy.body_shape, wl.cable_noise, rng)
    if wl.jacobian_mode:
        calib_end = noisy.imu[0].timestamp + wl.calibration_duration
        checks.check_jacobian(
            [c for c in noisy.cables if c.timestamp > calib_end], rng)
    return metrics


def run_workload(wl, seed, seconds, trace, out_dir):
    """All rounds of one run; returns the result object that is printed."""
    setup_s = measure_setup()
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    rounds = []
    correct = True
    first = metrics = None
    start = time.perf_counter()
    round_s = 0.0
    # whole rounds only: none is started that would end after `seconds`
    while (len(rounds) < 1 + trace
           or time.perf_counter() - start + round_s <= seconds):
        t0 = time.perf_counter()
        rnd = run_round(wl, seed, out_dir, traced=trace and len(rounds) % 2 == 1)
        if rnd.digests is not None:
            try:
                if first is None:
                    first = rnd.digests
                    metrics = check_outputs(wl, seed, out_dir, rnd)
                elif rnd.digests != first:
                    raise checks.CheckFailed("round outputs differ from the first")
            except checks.CheckFailed as err:
                print(f"check failed: {err}", file=sys.stderr)
                correct = False
        rnd.inputs = None
        rounds.append(rnd)
        round_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(out_dir / "rounds.json", "w") as f:
        json.dump([{"traced": r.traced, **r.times, "spans": r.spans}
                   for r in rounds], f)

    # The median over a run's calls, so that a call caught in a short
    # slow phase of the host does not move the run's figure.
    def median(key, traced):
        return statistics.median(t for r in rounds if r.traced == traced
                                 for t in r.times[key])

    if trace:
        layers = {}
        traced_rounds = [r.layers for r in rounds if r.traced]
        for key in traced_rounds[0]:
            layers[key] = statistics.median(r[key] for r in traced_rounds)
        layers["trace.overhead_estimate_s"] = (
            median("estimate_s", True) - median("estimate_s", False))
        if metrics is not None:
            layers["evaluate.drift_pct"] = metrics["drift_pct"]
            layers["evaluate.rpe_m_per_m"] = metrics["rpe_rmse_m_per_m"]
        values = layers
    else:
        values = {"setup_s": setup_s,
                  "simulate_s": median("simulate_s", False),
                  "estimate_s": median("estimate_s", False),
                  "evaluate_s": median("evaluate_s", False),
                  "peak_rss_mb": peak_rss_mb}
    return {
        "correct": correct and metrics is not None,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in values.items()},
    }


_UNIT_SUFFIXES = (
    ("calls", "count"), ("created", "count"), ("applied", "count"),
    ("gated", "count"), ("failures", "count"), ("per_call", "count"),
    ("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
    ("_pct", "%"), ("_m_per_m", "m/m"),
)


def unit_of(name):
    """Unit of a metric, read off its name's suffix."""
    for suffix, unit in _UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="python3 -m perfbench",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    out_dir = RUNS / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    result = run_workload(wl, args.seed, args.seconds, args.trace, out_dir)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0
