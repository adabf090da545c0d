"""Check that the working tree writes the same output files as a base revision.

    python3 tools/same_outputs.py [BASE] [--seeds N [N ...]]

For every seed it runs, on both trees:
  * each benchmark workload (perfbench/workloads.py): the inputs are
    made as the benchmark makes them, then `tenseg estimate` and
    `tenseg evaluate` run on them;
  * `tenseg pipeline` with the default config, with
    `fk_covariance_mode = jacobian`, with `maneuver = backward` and
    `cable_noise = 0.005`, with `terrain = valley`, and in empirical FK
    mode with `chatter = 0.02`;
  * the shape solver alone, through its public API: a sha256 over the
    `q` and `residual` of warm-chained solves of exact and noisy (5 mm)
    cable frames of a forward roll (every fifth frame), chained from the
    true shape as acceptance criterion 1 solves them, plus a cold solve
    on every fourth of those and a `J_p` sweep of all six endcaps on
    every twentieth, and the type and message of any failure
    (solver_digest.txt).
The base tree is a `git archive` of BASE (default HEAD); only its
`src/` is used, and both trees run the working tree's workloads.  Every
output file (sensors.jsonl, ground_truth.tum, estimate.tum,
estimate_info.json, metrics.json, errors.csv, sim_info.json,
solver_digest.txt) is then compared byte for byte.  Exit status 0 means
every file is identical.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("sensors.jsonl", "ground_truth.tum", "estimate.tum",
           "estimate_info.json", "metrics.json", "errors.csv", "sim_info.json",
           "solver_digest.txt")
PIPELINE_CONFIGS = {"default": "", "jacobian": "fk_covariance_mode = jacobian\n",
                    "backward": "maneuver = backward\ncable_noise = 0.005\n",
                    "valley": "terrain = valley\n",
                    "chatter": "chatter = 0.02\n"}


def solver_digest(seed):
    """sha256 over the shape solver's outputs on one seed's frames."""
    import numpy as np
    from tenseg.shape import (
        J_p,
        RobotShape,
        ShapeError,
        ShapeSolverConfig,
        reconstruct_shape,
    )
    from tenseg.simulator import SimConfig, corrupt, generate

    cfg = ShapeSolverConfig()
    sim = generate(SimConfig(maneuver="forward", target_length=2.0))
    digest = hashlib.sha256()

    def record(solve, *args):
        try:
            out = solve(*args)
        except ShapeError as err:
            digest.update(f"{type(err).__name__}: {err}".encode())
            return None
        if isinstance(out, RobotShape):
            digest.update(out.q.tobytes())
            digest.update(np.float64(out.residual).tobytes())
        else:
            digest.update(out.tobytes())
        return out

    for frames in (sim.cables, corrupt(sim, seed=seed, cable_noise=0.005).cables):
        prior = RobotShape(0.0, sim.body_shape)
        for k, meas in enumerate(frames[::5]):
            prior = record(reconstruct_shape, meas, prior, cfg) or prior
            if k % 4 == 0:
                record(reconstruct_shape, meas, None, cfg)
            if k % 20 == 0:
                record(J_p, meas, range(6), cfg, prior)
    return digest.hexdigest()


def produce(tree_src, out_dir, seeds):
    """Write every run's outputs under out_dir with the tenseg in tree_src."""
    import tenseg
    from tenseg import cli
    from perfbench.run import simulate
    from perfbench.workloads import WORKLOADS

    if Path(tenseg.__file__).resolve().parent != Path(tree_src, "tenseg").resolve():
        raise SystemExit(f"imported {tenseg.__file__}, not the tree's own tenseg")
    out_dir = Path(out_dir)

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([*argv, "--log-level", "WARNING"])
        if rc != 0:
            raise SystemExit(f"tenseg {' '.join(argv)} exited {rc}")

    for seed in seeds:
        for name, wl in WORKLOADS.items():
            d = out_dir / f"{name}-seed{seed}"
            d.mkdir(parents=True)
            simulate(wl, seed, d)
            (d / "run.cfg").write_text(
                "".join(f"{k} = {v}\n" for k, v in wl.config.items()))
            run(["estimate", "--out-dir", str(d), "--config", str(d / "run.cfg")])
            run(["evaluate", "--out-dir", str(d)])
        for name, text in PIPELINE_CONFIGS.items():
            d = out_dir / f"pipeline-{name}-seed{seed}"
            d.mkdir(parents=True)
            (d / "run.cfg").write_text(text)
            run(["pipeline", "--out-dir", str(d), "--seed", str(seed),
                 "--config", str(d / "run.cfg")])
        d = out_dir / f"solver-seed{seed}"
        d.mkdir(parents=True)
        (d / "solver_digest.txt").write_text(solver_digest(seed) + "\n")


def _extract(base, dest):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", base, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _start(tree_src, out_dir, seeds):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(tree_src), str(ROOT),
                                           str(ROOT / "tools")]))
    code = ("import sys, same_outputs; "
            "same_outputs.produce(sys.argv[1], sys.argv[2], "
            "[int(s) for s in sys.argv[3:]])")
    return subprocess.Popen(
        [sys.executable, "-c", code, str(tree_src), str(out_dir),
         *map(str, seeds)], env=env, cwd=out_dir.parent)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?", default="HEAD",
                        help="git revision to compare against (default HEAD)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 3, 11])
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        tmp = Path(tmp)
        _extract(args.base, tmp / "base")
        trees = {"base": tmp / "base" / "src", "work": ROOT / "src"}
        procs = []
        for side, src in trees.items():
            (tmp / side / "out").mkdir(parents=True, exist_ok=True)
            procs.append(_start(src, tmp / side / "out", args.seeds))
        if any(p.wait() != 0 for p in procs):
            print("a run failed; nothing compared", file=sys.stderr)
            return 2

        differ = compared = 0
        for run_dir in sorted((tmp / "base" / "out").iterdir()):
            other = tmp / "work" / "out" / run_dir.name
            for name in OUTPUTS:
                a, b = run_dir / name, other / name
                if not (a.exists() or b.exists()):
                    continue
                compared += 1
                same = a.exists() and b.exists() and filecmp.cmp(a, b, shallow=False)
                if not same:
                    differ += 1
                    print(f"DIFFER {run_dir.name}/{name}")
        print(f"{compared - differ} of {compared} files identical "
              f"(base {args.base}, seeds {' '.join(map(str, args.seeds))})")
        return 1 if differ or not compared else 0


if __name__ == "__main__":
    sys.exit(main())
