"""Deterministic kinematic rolling simulator for a 3-bar prism robot.

The robot is treated as a rigid polyhedron (six endcap vertices, fixed
body-frame shape) that locomotes by tipping over edges of its support
triangle.  Each pivot is a rotation about the world-frame axis through
two contact points, with a quintic smoothstep angle profile so that
angular rate and acceleration start and end at zero.  Poses, velocities
and angular rates are analytic, so the emitted IMU stream is exact.

Streams:
  * ground-truth frames at the IMU rate,
  * IMU samples (specific force + angular rate, body frame); each sample
    is evaluated at the midpoint of its preceding interval, as an ideal
    integrating sensor would report,
  * cable lengths (constant, since the body is rigid),
  * per-endcap contact flags from a 1 mm terrain clearance test.

corrupt() overlays sensor noise: white IMU noise scaled to the sample
rate, random-walk IMU biases, optional cable noise and contact chatter.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .inekf import ContactVector, ImuSample, NoiseConfig
from .liegroup import rotation_to_z, so3_exp
from .shape import (
    CableMeasurements,
    RobotShape,
    ShapeSolverConfig,
    asymmetric_stance,
)


class SimulationError(Exception):
    pass


CONTACT_TOL = 1e-3      # vertex counts as touching below this clearance [m]
GRAVITY = np.array([0.0, 0.0, -9.81])

_DEFAULT_LENGTH = {"forward": 7.5, "backward": 6.7, "right_turn": 15.7}


@dataclass(frozen=True)
class SimConfig:
    maneuver: str = "forward"          # forward | backward | right_turn
    terrain: str = "flat"              # flat | valley
    target_length: float = None        # path length [m]; maneuver default
    imu_rate: float = 200.0
    cable_rate: float = 100.0
    contact_rate: float = 100.0
    dwell: float = 3.0                 # stationary time before first roll
    final_dwell: float = 1.0
    pivot_duration: float = 1.5
    turn_per_roll: float = -np.deg2rad(9.0)   # heading change, right_turn only
    valley_half_width: float = 1.0
    valley_slope_deg: float = 15.0
    duration_limit: float = 120.0

    def __post_init__(self):
        if self.maneuver not in _DEFAULT_LENGTH:
            raise ValueError(f"unknown maneuver {self.maneuver!r}")
        if self.terrain not in ("flat", "valley"):
            raise ValueError(f"unknown terrain {self.terrain!r}")

    @property
    def length(self):
        if self.target_length is not None:
            return self.target_length
        return _DEFAULT_LENGTH[self.maneuver]


@dataclass(frozen=True)
class GroundTruthFrame:
    timestamp: float
    rotation: np.ndarray
    velocity: np.ndarray
    position: np.ndarray
    contacts: tuple


@dataclass(frozen=True)
class SimOutput:
    config: SimConfig
    body_shape: np.ndarray       # (6, 3) endcap coordinates, body frame
    frames: tuple                # GroundTruthFrame at the IMU rate
    imu: tuple                   # ImuSample
    cables: tuple                # CableMeasurements
    contacts: tuple              # ContactVector
    path_length: float


def terrain_height(cfg: SimConfig, x, y):
    if cfg.terrain == "flat":
        return 0.0
    slope = np.tan(np.deg2rad(cfg.valley_slope_deg))
    return slope * max(0.0, abs(y) - cfg.valley_half_width)


def _smoothstep(tau):
    """Quintic smoothstep and its first derivative on [0, 1]."""
    s = tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2)
    ds = 30.0 * tau**2 * (1.0 - tau)**2
    return s, ds


def _clearance(cfg, verts):
    return min(v[2] - terrain_height(cfg, v[0], v[1]) for v in verts)


def _initial_pose(cfg, q):
    """Rest the bottom triangle {1, 3, 5} on the terrain at the origin."""
    tri = q[[1, 3, 5]]
    n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    n /= np.linalg.norm(n)
    if n @ (q.mean(axis=0) - tri.mean(axis=0)) > 0:
        n = -n              # outward (away from the body centroid)
    # minimal rotation taking the outward face normal to straight down
    R = rotation_to_z(-n)
    w = (R @ q.T).T
    p = np.zeros(3)
    p[2] = -w[:, 2].min()   # flat patch at the origin for both terrains
    return R, p


def _support_ids(cfg, verts):
    return [i for i in range(6)
            if verts[i, 2] - terrain_height(cfg, *verts[i, :2]) < CONTACT_TOL]


def _pick_edge(support, verts, heading):
    """Support-triangle edge whose outward direction best matches heading."""
    centroid = verts[support].mean(axis=0)
    best, best_dot = None, -np.inf
    for a, b in ((0, 1), (1, 2), (2, 0)):
        i, j = support[a], support[b]
        mid = 0.5 * (verts[i] + verts[j])
        out = mid - centroid
        out[2] = 0.0
        n = np.linalg.norm(out)
        if n < 1e-12:
            continue
        d = (out / n) @ heading
        if d > best_dot:
            best, best_dot = (i, j), d
    return best


def _landing_angle(cfg, verts, o, axis, exclude):
    """Smallest pivot angle at which a non-axis vertex reaches the terrain."""
    candidates = [i for i in range(6) if i not in exclude]

    def clearance(theta):
        E = so3_exp(theta * axis)
        moved = (E @ (verts[candidates] - o).T).T + o
        return _clearance(cfg, moved)

    lo = 0.05
    if clearance(lo) <= 0.0:
        raise SimulationError("support vertex failed to lift off")
    theta = lo
    while theta < 2.5:
        hi = theta + 0.02
        if clearance(hi) <= 0.0:
            for _ in range(80):
                mid = 0.5 * (theta + hi)
                if clearance(mid) <= 0.0:
                    hi = mid
                else:
                    theta = mid
            return 0.5 * (theta + hi)
        theta = hi
    raise SimulationError("no landing contact found; rolled off the terrain")


def _pivot_axis(verts, i, j, heading):
    """Signed unit axis through vertices i, j tipping the body along heading."""
    o = verts[i]
    axis = verts[j] - verts[i]
    axis /= np.linalg.norm(axis)
    com = verts.mean(axis=0)
    push = np.cross(axis, com - o)
    if push @ heading < 0:
        axis = -axis
    return o, axis


def _segments(cfg: SimConfig, q):
    """Piecewise-analytic trajectory: dwell, pivots, final dwell."""
    R, p = _initial_pose(cfg, q)
    heading = {"forward": np.array([1.0, 0.0, 0.0]),
               "backward": np.array([-1.0, 0.0, 0.0]),
               "right_turn": np.array([1.0, 0.0, 0.0])}[cfg.maneuver]
    segs = [("dwell", 0.0, cfg.dwell, R.copy(), p.copy())]
    t = cfg.dwell
    travelled = 0.0
    while travelled < cfg.length:
        if t > cfg.duration_limit:
            raise SimulationError("duration limit hit before target length")
        verts = (R @ q.T).T + p
        support = _support_ids(cfg, verts)
        if len(support) != 3:
            raise SimulationError(f"support polygon has {len(support)} vertices")
        edge = _pick_edge(support, verts, heading)
        if edge is None:
            raise SimulationError("degenerate support triangle")
        o, axis = _pivot_axis(verts, edge[0], edge[1], heading)
        theta = _landing_angle(cfg, verts, o, axis, set(edge))
        segs.append(("pivot", t, t + cfg.pivot_duration,
                     R.copy(), p.copy(), o, axis, theta))
        E = so3_exp(theta * axis)
        p_new = o + E @ (p - o)
        r = p - o
        travelled += theta * np.linalg.norm(r - (r @ axis) * axis)
        R, p = E @ R, p_new
        t += cfg.pivot_duration
        if cfg.maneuver == "right_turn":
            heading = so3_exp([0.0, 0.0, cfg.turn_per_roll]) @ heading
    segs.append(("dwell", t, t + cfg.final_dwell, R.copy(), p.copy()))
    return segs


def _kinematics(seg, t):
    """(R, p, v, omega_world) of the body frame at time t."""
    if seg[0] == "dwell":
        _, _, _, R, p = seg
        z = np.zeros(3)
        return R, p, z, z
    _, t0, t1, R0, p0, o, axis, theta_total = seg
    tau = np.clip((t - t0) / (t1 - t0), 0.0, 1.0)
    s, ds = _smoothstep(tau)
    T = t1 - t0
    theta = theta_total * s
    rate = theta_total * ds / T
    E = so3_exp(theta * axis)
    p = o + E @ (p0 - o)
    # v = rate * cross(axis, p - o), the cross product in np.cross's order
    a0, a1, a2 = axis.tolist()
    r0, r1, r2 = (p - o).tolist()
    v = rate * np.array((a1 * r2 - a2 * r1, a2 * r0 - a0 * r2, a0 * r1 - a1 * r0))
    return E @ R0, p, v, rate * axis


def _seg_at(segs, starts, t):
    return segs[max(0, bisect_right(starts, t) - 1)]


def generate(cfg: SimConfig = None) -> SimOutput:
    """Ground truth and exact sensor streams for one maneuver."""
    if cfg is None:
        cfg = SimConfig()
    q = asymmetric_stance(ShapeSolverConfig())
    segs = _segments(cfg, q)
    starts = [s[1] for s in segs]
    t_end = segs[-1][2]

    def pose(t):
        return _kinematics(_seg_at(segs, starts, t), t)

    frames = []
    n_frames = int(round(t_end * cfg.imu_rate))
    for k in range(n_frames + 1):
        t = k / cfg.imu_rate
        R, p, v, _ = pose(t)
        verts = (R @ q.T).T + p
        flags = tuple(
            verts[i, 2] - terrain_height(cfg, *verts[i, :2]) < CONTACT_TOL
            for i in range(6))
        frames.append(GroundTruthFrame(t, R, v, p, flags))

    imu = []
    dt = 1.0 / cfg.imu_rate
    end = pose(0.0)
    for k in range(1, n_frames + 1):
        # angular rate at the interval midpoint; specific force consistent
        # with the velocity increment over the interval, expressed in the
        # start-of-interval body frame (ideal integrating sensor outputs);
        # the last interval's end, k * dt, is this one's start (k - 1) * dt
        Rm, _, _, omega = pose((k - 0.5) * dt)
        R0, _, v0, _ = end
        end = pose(k * dt)
        v1 = end[2]
        imu.append(ImuSample(k * dt,
                             R0.T @ ((v1 - v0) / dt - GRAVITY),
                             Rm.T @ omega))

    lengths = RobotShape(0.0, q).cable_lengths()
    cables = tuple(
        CableMeasurements.from_vector(k / cfg.cable_rate, lengths)
        for k in range(int(round(t_end * cfg.cable_rate)) + 1))

    contacts = []
    for k in range(int(round(t_end * cfg.contact_rate)) + 1):
        t = k / cfg.contact_rate
        R, p, _, _ = pose(t)
        verts = (R @ q.T).T + p
        contacts.append(ContactVector(t, tuple(
            verts[i, 2] - terrain_height(cfg, *verts[i, :2]) < CONTACT_TOL
            for i in range(6))))

    pos = np.array([f.position for f in frames])
    path_length = float(np.sum(np.linalg.norm(np.diff(pos, axis=0), axis=1)))
    return SimOutput(cfg, q, tuple(frames), tuple(imu), cables,
                     tuple(contacts), path_length)


def corrupt(sim: SimOutput, noise: NoiseConfig = None, seed=0,
            cable_noise=0.0, chatter=0.0) -> SimOutput:
    """Overlay sensor noise on exact streams.

    IMU white noise is scaled by 1/sqrt(dt) so its discrete sample
    variance matches the continuous densities the filter assumes; biases
    follow random walks starting at zero.  Cable noise and contact
    chatter (per-flag flip probability) are off by default.
    """
    if noise is None:
        noise = NoiseConfig()
    rng = np.random.default_rng(seed)
    n = len(sim.imu)
    dt = 1.0 / sim.config.imu_rate
    root = 1.0 / np.sqrt(dt)
    # the per-sample draws in sample order: gyro bias step, accel bias
    # step, accel noise, gyro noise
    z = rng.normal(size=(n, 4, 3))
    # random walks from zero; the leading zero row keeps 0.0 + step exact
    walks = np.zeros((n + 1, 2, 3))
    walks[1:, 0] = noise.sigma_gyro_bias * np.sqrt(dt) * z[:, 0]
    walks[1:, 1] = noise.sigma_accel_bias * np.sqrt(dt) * z[:, 1]
    np.cumsum(walks, axis=0, out=walks)
    bg, ba = walks[1:, 0], walks[1:, 1]
    accel = np.array([s.accel for s in sim.imu]).reshape(n, 3) + ba \
        + noise.sigma_accel * root * z[:, 2]
    gyro = np.array([s.gyro for s in sim.imu]).reshape(n, 3) + bg \
        + noise.sigma_gyro * root * z[:, 3]
    # the public constructor raises the error a non-finite sample gets
    make = ImuSample._trusted if np.isfinite(accel).all() \
        and np.isfinite(gyro).all() else ImuSample
    imu = [make(s.timestamp, a.copy(), g.copy())
           for s, a, g in zip(sim.imu, accel, gyro)]

    cables = sim.cables
    if cable_noise > 0.0:
        draws = rng.normal(scale=cable_noise, size=(len(cables), 9))
        cables = tuple(
            CableMeasurements.from_vector(c.timestamp, c.as_vector() + d)
            for c, d in zip(sim.cables, draws))

    contacts = sim.contacts
    if chatter > 0.0:
        flips = (rng.random(size=(len(contacts), 6)) < chatter).tolist()
        contacts = tuple(
            ContactVector(c.timestamp, tuple(
                (not f) if flip else f for f, flip in zip(c.flags, fl)))
            for c, fl in zip(sim.contacts, flips))

    return replace(sim, imu=tuple(imu), cables=cables, contacts=contacts)
