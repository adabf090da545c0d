"""Command-line interface: simulate, estimate, evaluate, pipeline.

    tenseg simulate --out-dir runs/fwd --seed 1
    tenseg estimate --out-dir runs/fwd
    tenseg evaluate --out-dir runs/fwd
    tenseg pipeline --out-dir runs/fwd --seed 1

simulate writes sensors.jsonl and ground_truth.tum, estimate writes
estimate.tum, evaluate writes metrics.json and errors.csv.  Options not
covered by flags come from a flat key=value --config file.

Exit codes: 0 success, 1 command-line usage error, 2 invalid config or
malformed input file, 3 numerical failure (simulation, shape solver, or
filter).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from .evaluate import (
    EvaluationError,
    Trajectory,
    align_initial,  # noqa: F401  (perfbench/trace.py patches this name)
    drift_metrics,  # noqa: F401  (perfbench/trace.py patches this name)
    evaluate_run,
)
from .inekf import ContactAidedFilter, FilterError
from .logio import (
    ConfigError,
    LogFormatError,
    config_get,
    read_config,
    read_sensor_log,
    read_trajectory,
    write_errors,
    write_sensor_log,
    write_trajectory,
)
from .shape import ShapeError
from .simulator import SimConfig, SimulationError, corrupt, generate

log = logging.getLogger("tenseg")

_KNOWN_KEYS = {
    "maneuver", "terrain", "target_length", "cable_noise", "chatter",
    "calibration_duration", "fk_covariance_mode",
}


def _load_config(path):
    if path is None:
        return {}
    cfg = read_config(path)
    unknown = set(cfg) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _sim_config(cfg):
    return SimConfig(
        maneuver=config_get(cfg, "maneuver", "forward"),
        terrain=config_get(cfg, "terrain", "flat"),
        target_length=config_get(cfg, "target_length", None, float),
    )


def cmd_simulate(args, cfg):
    sim_cfg = _sim_config(cfg)
    log.info("simulating %s on %s terrain", sim_cfg.maneuver, sim_cfg.terrain)
    sim = generate(sim_cfg)
    noisy = corrupt(sim, seed=args.seed,
                    cable_noise=config_get(cfg, "cable_noise", 0.002, float),
                    chatter=config_get(cfg, "chatter", 0.0, float))
    write_sensor_log(os.path.join(args.out_dir, "sensors.jsonl"),
                     noisy.imu, noisy.cables, noisy.contacts, args.seed, cfg)
    t, R, _, p = sim.frames.columns
    write_trajectory(os.path.join(args.out_dir, "ground_truth.tum"), t, p, R)
    info = {"maneuver": sim_cfg.maneuver, "terrain": sim_cfg.terrain,
            "path_length_m": sim.path_length,
            "duration_s": sim.frames[-1].timestamp, "seed": args.seed}
    with open(os.path.join(args.out_dir, "sim_info.json"), "w") as f:
        json.dump(info, f, indent=2, sort_keys=True)
        f.write("\n")
    log.info("wrote %.2f m / %.1f s run to %s",
             sim.path_length, info["duration_s"], args.out_dir)


def _estimate_options(cfg):
    """(calibration_duration, fk_covariance_mode) of the config, checked."""
    duration = config_get(cfg, "calibration_duration", 2.0, float)
    if not 0.0 < duration < math.inf:
        raise ConfigError("calibration_duration must be positive and finite, "
                          f"got {duration!r}")
    mode = config_get(cfg, "fk_covariance_mode", "empirical")
    if mode not in ("empirical", "jacobian"):
        raise ConfigError("fk_covariance_mode must be 'empirical' or "
                          f"'jacobian', got {mode!r}")
    return duration, mode


def cmd_estimate(args, cfg):
    duration, mode = _estimate_options(cfg)
    sensors = getattr(args, "sensors", None) or os.path.join(
        args.out_dir, "sensors.jsonl")
    _, events = read_sensor_log(sensors)
    filt = ContactAidedFilter.calibrated(events, duration,
                                         jacobian_fk=mode == "jacobian")
    log.info("calibrated until t = %s s; gyro bias %s",
             filt.t_start, filt.state.bias.gyro)
    n = events.count_imu_after(filt.t_start)   # the samples run yields
    ts, ps, Rs = np.empty(n), np.empty((n, 3)), np.empty((n, 3, 3))
    for k, imu in enumerate(filt.run(events)):
        ts[k] = imu.timestamp
        ps[k] = filt.state.position
        Rs[k] = filt.state.rotation
    write_trajectory(os.path.join(args.out_dir, "estimate.tum"), ts, ps, Rs)
    info = {"samples": n, "solver_failures": filt.solver_failures,
            "active_contacts": list(filt.state.active_contacts)}
    with open(os.path.join(args.out_dir, "estimate_info.json"), "w") as f:
        json.dump(info, f, indent=2, sort_keys=True)
        f.write("\n")
    log.info("estimated %d poses (%d shape solver failures)",
             n, filt.solver_failures)


def cmd_evaluate(args, cfg):
    est_path = getattr(args, "estimate", None) or os.path.join(
        args.out_dir, "estimate.tum")
    ref_path = getattr(args, "truth", None) or os.path.join(
        args.out_dir, "ground_truth.tum")
    report = evaluate_run(Trajectory(*read_trajectory(est_path)),
                          Trajectory(*read_trajectory(ref_path)))
    with open(os.path.join(args.out_dir, "metrics.json"), "w") as f:
        json.dump(report.as_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    write_errors(os.path.join(args.out_dir, "errors.csv"),
                 report.timestamps, report.position_errors)
    log.info("drift %.2f%% over %.2f m (RPE %.4f m/m)",
             report.drift_pct, report.path_length, report.rpe_rmse)
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))


def cmd_pipeline(args, cfg):
    _estimate_options(cfg)   # before simulate writes any file
    cmd_simulate(args, cfg)
    cmd_estimate(args, cfg)
    cmd_evaluate(args, cfg)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="tenseg",
        description="Proprioceptive state estimation for a rolling "
                    "3-bar tensegrity robot")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("estimate", cmd_estimate),
                     ("evaluate", cmd_evaluate), ("pipeline", cmd_pipeline)):
        p = sub.add_parser(name)
        p.add_argument("--log-level", default="INFO",
                       choices=["DEBUG", "INFO", "WARNING", "ERROR"])
        p.add_argument("--out-dir", required=True)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=0)
        if name in ("estimate",):
            p.add_argument("--sensors", default=None)
        if name in ("evaluate",):
            p.add_argument("--estimate", default=None)
            p.add_argument("--truth", default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(args.log_level)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        cfg = _load_config(args.config)
        args.fn(args, cfg)
    except (ConfigError, LogFormatError, EvaluationError, FileNotFoundError,
            ValueError) as err:
        log.error("%s", err)
        return 2
    except (SimulationError, ShapeError, FilterError) as err:
        log.error("%s", err)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
