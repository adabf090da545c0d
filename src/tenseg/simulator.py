"""Deterministic kinematic rolling simulator for a 3-bar prism robot.

The robot is treated as a rigid polyhedron (six endcap vertices, fixed
body-frame shape) that locomotes by tipping over edges of its support
triangle.  Each pivot is a rotation about the world-frame axis through
two contact points, with a quintic smoothstep angle profile so that
angular rate and acceleration start and end at zero.  Poses, velocities
and angular rates are analytic, so the emitted IMU stream is exact.

Streams:
  * ground-truth poses and velocities at the IMU rate,
  * IMU samples (specific force + angular rate, body frame); each sample
    is evaluated at the midpoint of its preceding interval, as an ideal
    integrating sensor would report,
  * cable lengths (constant, since the body is rigid),
  * per-endcap contact flags at CONTACT_RATE from a 1 mm terrain
    clearance test.

Every stream is evaluated array-at-once: the sample times of each grid
are sorted into trajectory segments with one searchsorted, and each
segment's poses are computed in one stacked pass.  The arrays give the
same bits as evaluating one time at a time with liegroup.so3_exp, which
holds because
  * elementwise ufuncs (np.sin, np.cos, +, *, /) round each element as
    the scalar operation does;
  * stacked matmul runs the same BLAS call per 3x3 slice as a 2-D `@`,
    also for the row dot product (n,1,3)@(n,3,1) that stands in for
    phi.dot(phi); np.einsum sums in another order and does not match;
  * array `**` takes a vectorized pow that differs from the scalar
    pow() in the last bit, so powers go through Python floats (_pow).

The ground-truth frames and the IMU samples are array-backed Streams
(tenseg.inekf.Stream, which the sensor log reader shares): SimOutput
keeps their stacked arrays, read-only, and builds each
GroundTruthFrame or ImuSample when a caller reads it, as views of those
arrays.

corrupt() overlays sensor noise: white IMU noise scaled to the sample
rate, random-walk IMU biases, optional cable noise and contact chatter.
It adds the IMU noise to the stacked arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .inekf import (
    SIGMA_ACCEL,
    SIGMA_ACCEL_BIAS,
    SIGMA_GYRO,
    SIGMA_GYRO_BIAS,
    ContactVector,
    ImuSample,
    Stream,
)
from .liegroup import SMALL_ANGLE, rotation_to_z, so3_exp
from .shape import (
    GRAVITY,
    CableMeasurements,
    RobotShape,
    ShapeSolverConfig,
    asymmetric_stance,
)


class SimulationError(Exception):
    pass


CONTACT_TOL = 1e-3      # vertex counts as touching below this clearance [m]
CONTACT_RATE = 100.0    # contact flag rate [Hz]
TURN_PER_ROLL = -np.deg2rad(9.0)   # heading change per roll, right_turn only
VALLEY_HALF_WIDTH = 1.0  # flat floor half-width of the valley terrain [m]
VALLEY_SLOPE_DEG = 15.0
DURATION_LIMIT = 120.0  # a maneuver still short of its length by then fails [s]

_DEFAULT_LENGTH = {"forward": 7.5, "backward": 6.7, "right_turn": 15.7}


@dataclass(frozen=True)
class SimConfig:
    maneuver: str = "forward"          # forward | backward | right_turn
    terrain: str = "flat"              # flat | valley
    target_length: float = None        # path length [m]; maneuver default
    imu_rate: float = 200.0
    cable_rate: float = 100.0
    dwell: float = 3.0                 # stationary time before first roll
    final_dwell: float = 1.0
    pivot_duration: float = 1.5

    def __post_init__(self):
        if self.maneuver not in _DEFAULT_LENGTH:
            raise ValueError(f"unknown maneuver {self.maneuver!r}")
        if self.terrain not in ("flat", "valley"):
            raise ValueError(f"unknown terrain {self.terrain!r}")
        if self.target_length is not None \
                and not 0.0 < self.target_length < math.inf:
            raise ValueError("target_length must be positive and finite, "
                             f"got {self.target_length!r}")
        for name in ("imu_rate", "cable_rate", "pivot_duration"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)!r}")
        for name in ("dwell", "final_dwell"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, "
                                 f"got {getattr(self, name)!r}")

    @property
    def length(self):
        if self.target_length is not None:
            return self.target_length
        return _DEFAULT_LENGTH[self.maneuver]


@dataclass(frozen=True, slots=True)
class GroundTruthFrame:
    """Pose at one IMU-rate time; slotted, as a run reads thousands."""

    timestamp: float
    rotation: np.ndarray
    velocity: np.ndarray
    position: np.ndarray


@dataclass(frozen=True)
class SimOutput:
    config: SimConfig
    body_shape: np.ndarray       # (6, 3) endcap coordinates, body frame
    frames: Stream               # GroundTruthFrame at the IMU rate
    imu: Stream                  # ImuSample
    cables: tuple                # CableMeasurements
    contacts: tuple              # ContactVector at CONTACT_RATE
    path_length: float


def terrain_height(cfg: SimConfig, x, y):
    """Terrain height at (x, y); arrays of points give an array."""
    if cfg.terrain == "flat":
        return 0.0
    slope = np.tan(np.deg2rad(VALLEY_SLOPE_DEG))
    return slope * np.maximum(np.abs(y) - VALLEY_HALF_WIDTH, 0.0)


def _pow(x, k):
    """x ** k of each element, rounded as np.float64 ** k rounds it."""
    return np.array([v ** k for v in x.tolist()])


def _smoothstep(tau):
    """Quintic smoothstep and its first derivative on [0, 1], elementwise."""
    tau2, tau3 = _pow(tau, 2), _pow(tau, 3)
    s = tau3 * (10.0 - 15.0 * tau + 6.0 * tau2)
    ds = 30.0 * tau2 * _pow(1.0 - tau, 2)
    return s, ds


def _so3_exp_rows(phi):
    """liegroup.so3_exp of each row of phi (n, 3), stacked (n, 3, 3)."""
    n = len(phi)
    # the row dot products as so3_exp's phi.dot(phi)
    theta = np.sqrt(phi[:, None, :] @ phi[:, :, None]).reshape(n)
    x, y, z = phi.T
    S = np.zeros((n, 3, 3))
    S[:, 0, 1], S[:, 0, 2] = -z, y
    S[:, 1, 0], S[:, 1, 2] = z, -x
    S[:, 2, 0], S[:, 2, 1] = -y, x
    # the small-angle series is the general form with a = 1, b = 1/2
    a, b = np.ones(n), np.full(n, 0.5)
    big = ~(theta < SMALL_ANGLE)
    th = theta[big]
    a[big] = np.sin(th) / th
    b[big] = (1.0 - np.cos(th)) / _pow(th, 2)
    return np.eye(3) + a[:, None, None] * S + b[:, None, None] * (S @ S)


def _touching(cfg, verts):
    """Contact flags of the vertices (..., 3): clearance below CONTACT_TOL."""
    return verts[..., 2] - terrain_height(
        cfg, verts[..., 0], verts[..., 1]) < CONTACT_TOL


def _clearance(cfg, verts):
    return (verts[:, 2] - terrain_height(cfg, verts[:, 0], verts[:, 1])).min()


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
    return np.flatnonzero(_touching(cfg, verts)).tolist()


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
        if t > DURATION_LIMIT:
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
            heading = so3_exp([0.0, 0.0, TURN_PER_ROLL]) @ heading
    segs.append(("dwell", t, t + cfg.final_dwell, R.copy(), p.copy()))
    return segs


def _poses(segs, t):
    """(R, p, v, omega_world) of the body frame at each of the times t,
    stacked (n, 3, 3), (n, 3), (n, 3), (n, 3)."""
    n = len(t)
    R, p = np.empty((n, 3, 3)), np.empty((n, 3))
    v, omega = np.zeros((n, 3)), np.zeros((n, 3))
    # a time on a segment start belongs to that segment, as in bisect_right
    which = np.maximum(
        np.searchsorted([s[1] for s in segs], t, side="right") - 1, 0)
    for i, seg in enumerate(segs):
        at = which == i
        if not at.any():
            continue
        if seg[0] == "dwell":
            R[at], p[at] = seg[3], seg[4]
            continue
        _, t0, t1, R0, p0, o, axis, theta_total = seg
        T = t1 - t0
        tau = np.clip((t[at] - t0) / T, 0.0, 1.0)
        s, ds = _smoothstep(tau)
        rate = theta_total * ds / T
        E = _so3_exp_rows((theta_total * s)[:, None] * axis)
        R[at] = E @ R0
        pos = o + (E @ (p0 - o)[:, None])[:, :, 0]
        p[at] = pos
        # v = rate * cross(axis, p - o), the cross product in np.cross's order
        a0, a1, a2 = axis.tolist()
        r0, r1, r2 = (pos - o).T
        v[at] = rate[:, None] * np.stack(
            (a1 * r2 - a2 * r1, a2 * r0 - a0 * r2, a0 * r1 - a1 * r0), axis=1)
        omega[at] = rate[:, None] * axis
    return R, p, v, omega


def _in_body(R, x):
    """R[k].T @ x[k] for each k."""
    return (R.transpose(0, 2, 1) @ x[:, :, None])[:, :, 0]


def _flags(cfg, q, R, p):
    """Per-pose contact flags of the six endcaps, as lists of bools."""
    verts = (R @ q.T).transpose(0, 2, 1) + p[:, None, :]
    return _touching(cfg, verts).tolist()


def _imu_stream(t, accel, gyro):
    """Stream of ImuSamples over stacked (n,), (n, 3), (n, 3) arrays.  A
    non-finite row raises here the ValueError its ImuSample would."""
    finite = np.isfinite(accel).all(axis=1) & np.isfinite(gyro).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        ImuSample(t[k], accel[k], gyro[k])   # raises
    return Stream(ImuSample._trusted, t, accel, gyro)


def generate(cfg: SimConfig = None) -> SimOutput:
    """Ground truth and exact sensor streams for one maneuver."""
    if cfg is None:
        cfg = SimConfig()
    q = asymmetric_stance(ShapeSolverConfig())
    segs = _segments(cfg, q)
    t_end = segs[-1][2]

    n_frames = int(round(t_end * cfg.imu_rate))
    k = np.arange(n_frames + 1)
    t = k / cfg.imu_rate
    R, p, v, _ = _poses(segs, t)
    frames = Stream(GroundTruthFrame, t, R, v, p)

    # angular rate at the interval midpoint; specific force consistent
    # with the velocity increment over the interval, expressed in the
    # start-of-interval body frame (ideal integrating sensor outputs).
    # k * dt and k / imu_rate may differ in the last bit, so the interval
    # ends get their own poses rather than the frames'.
    dt = 1.0 / cfg.imu_rate
    R_end, _, v_end, _ = _poses(segs, k * dt)
    R_mid, _, _, omega = _poses(segs, (k[1:] - 0.5) * dt)
    accel = _in_body(R_end[:-1], (v_end[1:] - v_end[:-1]) / dt - GRAVITY)
    gyro = _in_body(R_mid, omega)
    imu = _imu_stream(k[1:] * dt, accel, gyro)

    lengths = RobotShape(0.0, q).cable_lengths()
    cables = tuple(CableMeasurements(j / cfg.cable_rate, lengths)
                   for j in range(int(round(t_end * cfg.cable_rate)) + 1))

    tc = np.arange(int(round(t_end * CONTACT_RATE)) + 1) / CONTACT_RATE
    Rc, pc, _, _ = _poses(segs, tc)
    contacts = tuple(map(ContactVector, tc.tolist(), _flags(cfg, q, Rc, pc)))

    path_length = float(np.sum(np.linalg.norm(np.diff(p, axis=0), axis=1)))
    return SimOutput(cfg, q, frames, imu, cables, contacts, path_length)


def corrupt(sim: SimOutput, seed=0, cable_noise=0.0, chatter=0.0) -> SimOutput:
    """Overlay sensor noise on exact streams.

    IMU white noise is scaled by 1/sqrt(dt) so its discrete sample
    variance matches the continuous densities the filter assumes (the
    SIGMA_* constants of tenseg.inekf); biases follow random walks
    starting at zero.  Cable noise and contact chatter (per-flag flip
    probability) are off by default.  A cable_noise that is not
    non-negative and finite, or a chatter outside [0, 1], raises
    ValueError.
    """
    if not 0.0 <= cable_noise < math.inf:
        raise ValueError("cable_noise must be non-negative and finite, "
                         f"got {cable_noise!r}")
    if not 0.0 <= chatter <= 1.0:
        raise ValueError(f"chatter must be in [0, 1], got {chatter!r}")
    rng = np.random.default_rng(seed)
    n = len(sim.imu)
    dt = 1.0 / sim.config.imu_rate
    root = 1.0 / np.sqrt(dt)
    # the per-sample draws in sample order: gyro bias step, accel bias
    # step, accel noise, gyro noise
    z = rng.normal(size=(n, 4, 3))
    # random walks from zero; the leading zero row keeps 0.0 + step exact
    walks = np.zeros((n + 1, 2, 3))
    walks[1:, 0] = SIGMA_GYRO_BIAS * np.sqrt(dt) * z[:, 0]
    walks[1:, 1] = SIGMA_ACCEL_BIAS * np.sqrt(dt) * z[:, 1]
    np.cumsum(walks, axis=0, out=walks)
    bg, ba = walks[1:, 0], walks[1:, 1]
    t, accel, gyro = sim.imu.columns
    imu = _imu_stream(t, accel + ba + SIGMA_ACCEL * root * z[:, 2],
                      gyro + bg + SIGMA_GYRO * root * z[:, 3])

    cables = sim.cables
    if cable_noise > 0.0:
        draws = rng.normal(scale=cable_noise, size=(len(cables), 9))
        cables = tuple(CableMeasurements(c.timestamp, c.lengths + d)
                       for c, d in zip(sim.cables, draws))

    contacts = sim.contacts
    if chatter > 0.0:
        flips = (rng.random(size=(len(contacts), 6)) < chatter).tolist()
        contacts = tuple(
            ContactVector(c.timestamp, tuple(
                (not f) if flip else f for f, flip in zip(c.flags, fl)))
            for c, fl in zip(sim.contacts, flips))

    return replace(sim, imu=imu, cables=cables, contacts=contacts)
