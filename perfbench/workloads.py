"""The benchmark's workloads: simulator settings plus the CLI config.

Each workload is one maneuver generated at the seed the benchmark is
given.  The settings are scaled so that one round (simulate, estimate,
evaluate) takes a few seconds on a 2-vCPU machine; README.md gives the
make-up of each, and BENCHMARK.json and README.md why it was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    sim: dict            # SimConfig fields
    cable_noise: float   # injected cable-length noise std [m]
    chatter: float       # per-flag contact flip probability
    config: dict         # keys of the CLI's --config file, as strings

    @property
    def calibration_duration(self):
        return float(self.config.get("calibration_duration", "2.0"))

    @property
    def jacobian_mode(self):
        return self.config.get("fk_covariance_mode") == "jacobian"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="turn_imu1k",
        sim=dict(maneuver="right_turn", target_length=1.2, dwell=1.6,
                 final_dwell=0.2, imu_rate=1000.0),
        cable_noise=0.0,
        chatter=0.01,
        config={"maneuver": "right_turn", "chatter": "0.01",
                "calibration_duration": "1.5"},
    ),
    Workload(
        name="jacobian_fk",
        sim=dict(maneuver="forward", target_length=1.0, dwell=1.2,
                 final_dwell=0.0, pivot_duration=0.75, cable_rate=20.0),
        cable_noise=0.002,
        chatter=0.0,
        config={"maneuver": "forward", "cable_noise": "0.002",
                "fk_covariance_mode": "jacobian",
                "calibration_duration": "1.1"},
    ),
)}
