"""Contact-aided right-invariant EKF with IMU bias states.

State lives on SE_{2+l}(3) (orientation, velocity, position, plus one
column per active ground contact) with a Euclidean bias appendix
("imperfect" invariant EKF).  Error ordering throughout:

    [xi_R (3), xi_v (3), xi_p (3), xi_d per contact (3 each),
     dbg (3), dba (3)]

Propagation is bias-corrected strapdown under zero-order hold; the
covariance follows the linearized right-invariant error dynamics, whose
system matrix is state-independent apart from the bias-coupling blocks.
Contact positions are augmented at touchdown, corrected with the
forward-kinematics (reconstructed shape) measurement, and marginalized
at liftoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .liegroup import (
    GroupElement,
    compose,
    inverse,
    rotation_to_z,
    sek3_exp,
    sek3_log,
    skew,
    so3_exp,
)
from .shape import RobotShape, ShapeSolverConfig, h_p, h_R


class FilterError(Exception):
    pass


class CalibrationError(FilterError):
    pass


@dataclass(frozen=True)
class ImuSample:
    timestamp: float
    accel: np.ndarray   # specific force [m/s^2], body frame
    gyro: np.ndarray    # angular velocity [rad/s], body frame

    def __post_init__(self):
        for name in ("accel", "gyro"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be a finite 3-vector")
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @classmethod
    def _trusted(cls, timestamp, accel, gyro):
        """Sample from fresh finite float 3-vectors the caller has checked
        and gives up; the arrays become read-only.  Attributes are set one
        by one, as the public constructor does, so no per-instance dict
        is materialized for the many samples a log holds."""
        accel.flags.writeable = False
        gyro.flags.writeable = False
        sample = object.__new__(cls)
        object.__setattr__(sample, "timestamp", timestamp)
        object.__setattr__(sample, "accel", accel)
        object.__setattr__(sample, "gyro", gyro)
        return sample


@dataclass(frozen=True)
class ImuBias:
    accel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("accel", "gyro"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} bias must be a finite 3-vector")
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @classmethod
    def _successor(cls, accel, gyro):
        """Bias from fresh 3-vectors the caller gives up; only finiteness
        is checked, and the arrays become read-only."""
        if not all(map(math.isfinite, accel.tolist() + gyro.tolist())):
            raise ValueError("bias must be a finite 3-vector")
        accel.flags.writeable = False
        gyro.flags.writeable = False
        bias = object.__new__(cls)
        vars(bias).update(accel=accel, gyro=gyro)
        return bias


@dataclass(frozen=True)
class ContactVector:
    timestamp: float
    flags: tuple

    def __post_init__(self):
        flags = tuple(bool(c) for c in self.flags)
        if len(flags) != 6:
            raise ValueError("contact vector needs exactly six flags")
        object.__setattr__(self, "flags", flags)


@dataclass(frozen=True)
class NoiseConfig:
    """Noise standard deviations (white noise and bias random walks)."""

    sigma_gyro: float = 0.002         # [rad/s]
    sigma_accel: float = 0.043        # [m/s^2]
    sigma_gyro_bias: float = 0.001    # [rad/s per sqrt(s)]
    sigma_accel_bias: float = 0.001   # [m/s^2 per sqrt(s)]
    sigma_contact: float = 0.05       # contact slip velocity [m/s]
    sigma_cable: float = 0.005        # cable length noise, jacobian FK mode [m]
    sigma_fk: float = 0.01            # empirical FK position noise [m]
    fk_covariance_mode: str = "empirical"   # "empirical" | "jacobian"
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -9.81]))

    def __post_init__(self):
        g = np.array(self.gravity, dtype=float)
        g.flags.writeable = False
        object.__setattr__(self, "gravity", g)
        if self.fk_covariance_mode not in ("empirical", "jacobian"):
            raise ValueError("fk_covariance_mode must be 'empirical' or 'jacobian'")


_EYE3 = np.eye(3)
_EYE3.flags.writeable = False

# Outlier gate: chi-square 99.9% quantile, 3 dof (scipy's chi2.ppf(0.999, 3)).
CHI2_GATE_3DOF = 16.26623619623813
MAX_CONDITION = 1e12
MAX_DT = 0.1

# Initial covariance after stationary calibration: orientation, velocity,
# biases uncertain; position pinned (the world frame is defined there).
INIT_STD_ORIENTATION = 0.01
INIT_STD_VELOCITY = 0.1
INIT_STD_BIAS = 0.01


@dataclass(frozen=True)
class EstimatorState:
    group: GroupElement            # columns: v, p, then active contacts
    active_contacts: tuple         # endcap ids, column order
    bias: ImuBias
    P: np.ndarray                  # covariance over [xi, dbg, dba]
    timestamp: float

    def __post_init__(self):
        contacts = tuple(int(c) for c in self.active_contacts)
        if len(set(contacts)) != len(contacts):
            raise ValueError("duplicate active contact")
        if self.group.K != 2 + len(contacts):
            raise ValueError("group columns inconsistent with active contacts")
        P = np.array(self.P, dtype=float)
        n = self.dim_of(len(contacts))
        if P.shape != (n, n):
            raise ValueError(f"covariance must be {n}x{n}")
        P = 0.5 * (P + P.T)
        P.flags.writeable = False
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "active_contacts", contacts)

    def _successor(self, group, P, bias=None, timestamp=None):
        """State with the same contacts from a fresh covariance P and a
        group of matching size: skips the copies and checks of the
        public constructor but keeps its symmetrization of P."""
        P = 0.5 * (P + P.T)
        P.flags.writeable = False
        new = object.__new__(type(self))
        vars(new).update(
            group=group, active_contacts=self.active_contacts,
            bias=self.bias if bias is None else bias, P=P,
            timestamp=self.timestamp if timestamp is None else timestamp)
        return new

    @staticmethod
    def dim_of(n_contacts):
        return 9 + 3 * n_contacts + 6

    @property
    def dim(self):
        return self.dim_of(len(self.active_contacts))

    @property
    def rotation(self):
        return self.group.rot

    @property
    def velocity(self):
        return self.group.cols[:, 0]

    @property
    def position(self):
        return self.group.cols[:, 1]

    def contact_position(self, endcap):
        i = self.active_contacts.index(endcap)
        return self.group.cols[:, 2 + i]

    def contact_slice(self, endcap):
        i = self.active_contacts.index(endcap)
        return slice(9 + 3 * i, 12 + 3 * i)

    @property
    def bias_slice(self):
        k = 9 + 3 * len(self.active_contacts)
        return slice(k, k + 6)


def initial_state(rotation, bias: ImuBias, timestamp,
                  position=(0.0, 0.0, 0.0)) -> EstimatorState:
    """Post-calibration state: at rest at the world origin (or given point)."""
    cols = np.zeros((3, 2))
    cols[:, 1] = position
    P = np.zeros((15, 15))
    P[0:3, 0:3] = INIT_STD_ORIENTATION**2 * np.eye(3)
    P[3:6, 3:6] = INIT_STD_VELOCITY**2 * np.eye(3)
    P[9:15, 9:15] = INIT_STD_BIAS**2 * np.eye(6)
    return EstimatorState(
        group=GroupElement(rotation, cols),
        active_contacts=(),
        bias=bias,
        P=P,
        timestamp=float(timestamp),
    )


def init_bias_calibration(stationary, duration, cfg: NoiseConfig):
    """Estimate gyro/accel biases and roll/pitch from a stationary stream.

    Yaw is unobservable and set to zero (the initial rotation maps the
    mean specific-force direction to the world vertical by the minimal
    rotation).  The accel bias component orthogonal to gravity is
    unobservable and absorbed into roll/pitch.
    """
    samples = [s for s in stationary if s.timestamp <= stationary[0].timestamp + duration]
    t = np.array([s.timestamp for s in samples])
    dt = np.median(np.diff(t)) if t.size >= 2 else 0.0
    # each sample reports the dt before it, so the window holds its span
    # plus dt of data; half a sample of slack absorbs timestamp rounding
    if t.size < 2 or t[-1] - t[0] + dt < 1.0 - 0.5 * dt:
        raise CalibrationError("need at least 1 s of stationary samples")
    gyro = np.array([s.gyro for s in samples])
    accel = np.array([s.accel for s in samples])
    # white-noise densities scale to sample std by 1/sqrt(dt)
    root = 1.0 / np.sqrt(max(dt, 1e-6))
    if np.any(gyro.std(axis=0) > 5 * cfg.sigma_gyro * root + 1e-12) or \
       np.any(accel.std(axis=0) > 5 * cfg.sigma_accel * root + 1e-12):
        raise CalibrationError("motion detected during calibration window")
    bg = gyro.mean(axis=0)
    a_mean = accel.mean(axis=0)
    g_mag = np.linalg.norm(cfg.gravity)
    n = np.linalg.norm(a_mean)
    if n < 0.5 * g_mag:
        raise CalibrationError("mean specific force inconsistent with gravity")
    R0 = rotation_to_z(a_mean / n)   # zero yaw
    ba = a_mean - R0.T @ (-cfg.gravity)
    return ImuBias(accel=ba, gyro=bg), R0


@lru_cache(maxsize=None)
def _identity(n):
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@lru_cache(maxsize=None)
def _contact_jacobian(n, k):
    """Read-only H of the contact measurement z = R m + p - d, whose
    contact d has its error block at k in an n-dim state."""
    H = np.zeros((3, n))
    H[:, 6:9] = -np.eye(3)
    H[:, k:k + 3] = np.eye(3)
    H.flags.writeable = False
    return H


# Row-major skew(c) of c = (x, y, z) as rows of [x, y, z, -x, -y, -z, 0].
_SKEW_ROWS = np.array([6, 5, 1, 2, 6, 3, 4, 0, 6])


def _column_cross_terms(state: EstimatorState):
    """Stack of skew(col_k) @ R for every state column (shared by the
    error-dynamics bias coupling and the adjoint)."""
    cols = state.group.cols
    K = cols.shape[1]
    signed = np.zeros((7, K))
    signed[:3] = cols
    np.negative(cols, out=signed[3:6])
    S = signed.take(_SKEW_ROWS, axis=0).T.reshape(K, 3, 3)
    return S @ state.group.rot


@lru_cache(maxsize=32)
def _step_constants(n, gravity, sigmas):
    """Read-only blocks of A and Q that no step changes, for an n-dim state
    and the gravity vector's float64 bytes.

    A gets the gravity coupling and the velocity-to-position identity;
    Q gets the bias random walks, and diag is the unwrapped white-noise
    diagonal of the group block.
    """
    sg, sa, sc, sgb, sab = sigmas
    A = np.zeros((n, n))
    A[3:6, 0:3] = skew(np.frombuffer(gravity))
    A[6:9, 3:6] = _EYE3
    ng = n - 6
    diag = np.empty(ng)
    diag[0:3] = sg**2
    diag[3:6] = sa**2
    diag[6:9] = 0.0
    diag[9:] = sc**2
    Q = np.zeros((n, n))
    Q[range(ng, n), range(ng, n)] = [sgb**2] * 3 + [sab**2] * 3
    for a in (A, diag, Q):
        a.flags.writeable = False
    return A, diag, Q


def _constants(state: EstimatorState, cfg: NoiseConfig):
    return _step_constants(
        state.dim, cfg.gravity.tobytes(),   # bytes tell -0.0 from 0.0
        (cfg.sigma_gyro, cfg.sigma_accel, cfg.sigma_contact,
         cfg.sigma_gyro_bias, cfg.sigma_accel_bias))


def _system_matrix(state: EstimatorState, cfg: NoiseConfig, W=None):
    if W is None:
        W = _column_cross_terms(state)
    A = _constants(state, cfg)[0].copy()
    minus_R = -state.group.rot
    k0 = A.shape[0] - 6
    A[0:3, k0:k0 + 3] = minus_R
    A[3:6, k0 + 3:] = minus_R
    A[3:k0, k0:k0 + 3] = -W.reshape(k0 - 3, 3)
    return A


def _process_noise(state: EstimatorState, cfg: NoiseConfig, contact_frame,
                   W=None):
    """Ad-wrapped continuous process noise covariance (per unit time).

    White IMU and contact-slip noises are isotropic (rotating contact
    noise through the gravity-aligned contact frame leaves it isotropic
    too), so the unwrapped covariance is diagonal and the adjoint wrap
    of the group block reduces to one scaled matrix product.  The bias
    block is Euclidean and stays unwrapped.
    """
    _, diag, Q = _constants(state, cfg)
    if W is None:
        W = _column_cross_terms(state)
    R = state.group.rot
    ng = diag.shape[0]
    Ad = np.zeros((ng, ng))
    Ad[3:, 0:3] = W.reshape(ng - 3, 3)
    for r in range(0, ng, 3):
        Ad[r:r + 3, r:r + 3] = R
    Q = Q.copy()
    Q[:ng, :ng] = (Ad * diag) @ Ad.T
    return Q


def propagate(state: EstimatorState, imu: ImuSample, dt, cfg: NoiseConfig,
              contact_frame=None) -> EstimatorState:
    """Strapdown mean propagation plus discretized Riccati covariance update.

    contact_frame is the gravity-aligned contact orientation used to
    express contact-slip noise (identity / None when not in contact).
    """
    if not (0.0 < dt <= MAX_DT):
        raise FilterError(f"rejected IMU sample: dt={dt}")
    omega = imu.gyro - state.bias.gyro
    acc = imu.accel - state.bias.accel
    R = state.group.rot
    a_w = R @ acc + cfg.gravity
    # v + a_w dt and p + v dt + 0.5 a_w dt^2, one axis at a time in scalars
    cols = state.group.cols.copy()
    cols[:, :2] = [(v + a * dt, p + v * dt + 0.5 * a * dt**2)
                   for (v, p), a in zip(cols[:, :2].tolist(), a_w.tolist())]
    group = GroupElement._successor(R @ so3_exp(omega * dt), cols)

    W = _column_cross_terms(state)
    A = _system_matrix(state, cfg, W)
    n = state.dim
    Phi = A * dt
    Phi += (0.5 * dt * dt) * (A @ A)
    Phi.ravel()[:: n + 1] += 1.0
    M = state.P + _process_noise(state, cfg, contact_frame, W) * dt
    P = Phi @ M @ Phi.T
    return state._successor(group, P, timestamp=state.timestamp + dt)


def fk_covariance_body(cfg: NoiseConfig, jacobian=None):
    """Body-frame covariance of the forward-kinematic contact position.

    Uses the cable-length Jacobian when provided and enabled, otherwise
    the empirical isotropic fallback.
    """
    if cfg.fk_covariance_mode == "jacobian" and jacobian is not None:
        return jacobian @ (cfg.sigma_cable**2 * np.eye(9)) @ jacobian.T
    return cfg.sigma_fk**2 * _EYE3


def augment_contact(state: EstimatorState, endcap, shape: RobotShape,
                    cfg: NoiseConfig, fk_jacobian=None) -> EstimatorState:
    """Append the world-frame contact position of the endcap to the state."""
    if endcap in state.active_contacts:
        raise FilterError(f"endcap {endcap} already active")
    R = state.rotation
    d_new = state.position + R @ h_p(shape, endcap)
    cols = np.column_stack([state.group.cols, d_new])
    group = GroupElement(R, cols)

    n_old = state.dim
    l_old = len(state.active_contacts)
    k = 9 + 3 * l_old          # insertion row (before the bias block)
    F = np.zeros((n_old + 3, n_old))
    F[:k, :k] = np.eye(k)
    F[k:k + 3, 6:9] = np.eye(3)              # new contact error copies xi_p
    F[k + 3:, k:] = np.eye(6)
    cov_fk = R @ fk_covariance_body(cfg, fk_jacobian) @ R.T
    P = F @ state.P @ F.T
    P[k:k + 3, k:k + 3] += cov_fk
    return EstimatorState(
        group=group,
        active_contacts=state.active_contacts + (int(endcap),),
        bias=state.bias,
        P=P,
        timestamp=state.timestamp,
    )


def marginalize_contact(state: EstimatorState, endcap) -> EstimatorState:
    """Drop the contact column and its covariance rows/columns."""
    if endcap not in state.active_contacts:
        raise FilterError(f"endcap {endcap} not active")
    i = state.active_contacts.index(endcap)
    keep_cols = [c for c in range(state.group.K) if c != 2 + i]
    group = GroupElement(state.rotation, state.group.cols[:, keep_cols])
    sl = state.contact_slice(endcap)
    keep = [r for r in range(state.dim) if not (sl.start <= r < sl.stop)]
    P = state.P[np.ix_(keep, keep)]
    contacts = tuple(c for c in state.active_contacts if c != endcap)
    return EstimatorState(group=group, active_contacts=contacts,
                          bias=state.bias, P=P, timestamp=state.timestamp)


@dataclass(frozen=True)
class CorrectionInfo:
    applied: bool
    reason: str
    innovation: np.ndarray
    mahalanobis: float


def correct_contact(state: EstimatorState, endcap, shape: RobotShape,
                    cfg: NoiseConfig, fk_jacobian=None):
    """Right-invariant forward-kinematics correction for one contact.

    Returns (state, CorrectionInfo); the state is unchanged when the
    innovation covariance is ill-conditioned or the innovation fails
    the chi-square outlier gate.
    """
    if endcap not in state.active_contacts:
        raise FilterError(f"endcap {endcap} not active")
    R = state.group.rot
    cols = state.group.cols
    i = state.active_contacts.index(endcap)
    m = h_p(shape, endcap)
    z = R @ m + cols[:, 1] - cols[:, 2 + i]

    P = state.P
    n = P.shape[0]
    H = _contact_jacobian(n, 9 + 3 * i)
    N = R @ fk_covariance_body(cfg, fk_jacobian) @ R.T
    S = H @ P @ H.T + N
    # np.linalg.cond(S) is s_max / s_min of this SVD, and infinite for 0 / 0
    s_max, _, s_min = np.linalg.svd(S, compute_uv=False).tolist()
    if s_min == 0.0 or s_max / s_min > MAX_CONDITION:
        return state, CorrectionInfo(False, "ill_conditioned", z, np.inf)
    Sinv = np.linalg.inv(S)
    maha = float(z @ Sinv @ z)
    if maha > CHI2_GATE_3DOF:
        return state, CorrectionInfo(False, "outlier", z, maha)

    L = P @ H.T @ Sinv
    delta = L @ z
    ng = n - 6
    group = compose(sek3_exp(delta[:ng]), state.group)
    bias = ImuBias._successor(state.bias.accel + delta[ng + 3:],
                              state.bias.gyro + delta[ng:ng + 3])
    ILH = _identity(n) - L @ H
    P = ILH @ P @ ILH.T + L @ N @ L.T
    return (state._successor(group, P, bias=bias),
            CorrectionInfo(True, "applied", z, maha))


def right_invariant_error(est: EstimatorState, truth_rot, truth_vel, truth_pos):
    """Log of the right-invariant error on the (R, v, p) core block."""
    est_core = GroupElement(est.rotation, est.group.cols[:, :2])
    true_core = GroupElement(truth_rot, np.column_stack([truth_vel, truth_pos]))
    return sek3_log(compose(est_core, inverse(true_core)))


@dataclass(frozen=True)
class FilterConfig:
    debounce_on: int = 2     # consecutive in-contact samples before augmenting
    debounce_off: int = 2    # consecutive off-contact samples before dropping
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    solver: ShapeSolverConfig = field(default_factory=ShapeSolverConfig)

    def __post_init__(self):
        if self.debounce_on < 1 or self.debounce_off < 1:
            raise ValueError("debounce counts must be >= 1")


class ContactAidedFilter:
    """Stateful driver tying IMU, cable, and contact streams together.

    IMU samples drive propagation; each cable frame is solved for shape
    (warm-started from the previous solution) and consumed by the next
    IMU step as a forward-kinematics correction for every active contact.
    Contact flags are debounced on both edges before the corresponding
    state column is augmented or marginalized.
    """

    def __init__(self, state: EstimatorState, config: FilterConfig = None):
        self.state = state
        self.config = config if config is not None else FilterConfig()
        self.shape = None
        self._shape_fresh = False
        self._on = [0] * 6
        self._off = [0] * 6
        self._jacobians = None    # J_p of all six endcaps for self.shape, on first use
        self.corrections = []     # CorrectionInfo log (most recent step)
        self.solver_failures = 0

    def _fk_jacobian(self, endcap):
        """FK Jacobian of one endcap; one J_p sweep serves all six per shape."""
        cfg = self.config.noise
        if cfg.fk_covariance_mode != "jacobian" or self.shape is None:
            return None
        if self._jacobians is None:
            from .shape import J_p, CableMeasurements, JacobianUnavailable
            meas = CableMeasurements.from_vector(
                self.shape.timestamp, self.shape.cable_lengths())
            try:
                self._jacobians = J_p(meas, range(6), self.config.solver,
                                      prior=self.shape)
            except JacobianUnavailable:
                self._jacobians = (None,) * 6
        return self._jacobians[endcap]

    def process_cables(self, meas):
        """Solve the shape for one cable frame; stale shape kept on failure."""
        from .shape import (MeasurementRejected, ShapeSolverFailure,
                            reconstruct_shape)
        try:
            self.shape = reconstruct_shape(meas, self.shape, self.config.solver)
            self._shape_fresh = True
            self._jacobians = None
        except MeasurementRejected:
            self.solver_failures += 1
            self._shape_fresh = False
        except ShapeSolverFailure as err:
            self.solver_failures += 1
            self._shape_fresh = False
            if self.shape is None and err.best_shape is not None:
                self.shape = err.best_shape

    def process_contacts(self, contacts: ContactVector):
        """Debounce contact flags and augment/marginalize on clean edges."""
        for endcap, flag in enumerate(contacts.flags):
            if flag:
                self._on[endcap] += 1
                self._off[endcap] = 0
                if (self._on[endcap] >= self.config.debounce_on
                        and endcap not in self.state.active_contacts
                        and self.shape is not None):
                    self.state = augment_contact(
                        self.state, endcap, self.shape, self.config.noise,
                        fk_jacobian=self._fk_jacobian(endcap))
            else:
                self._off[endcap] += 1
                self._on[endcap] = 0
                if (self._off[endcap] >= self.config.debounce_off
                        and endcap in self.state.active_contacts):
                    self.state = marginalize_contact(self.state, endcap)

    def process_imu(self, imu: ImuSample):
        """Propagate to the IMU timestamp, then apply pending corrections."""
        dt = imu.timestamp - self.state.timestamp
        frame = None
        if self.shape is not None:
            R_c, ok = h_R(self.shape, imu.accel)
            if ok:
                frame = R_c
        self.state = propagate(self.state, imu, dt, self.config.noise,
                               contact_frame=frame)
        self.corrections = []
        if self._shape_fresh:
            for endcap in self.state.active_contacts:
                self.state, info = correct_contact(
                    self.state, endcap, self.shape, self.config.noise,
                    fk_jacobian=self._fk_jacobian(endcap))
                self.corrections.append(info)
            self._shape_fresh = False

    def step(self, imu: ImuSample, contacts: ContactVector = None,
             cables=None):
        """One fused tick: cable solve, contact edges, then the IMU update."""
        if cables is not None:
            self.process_cables(cables)
        if contacts is not None:
            self.process_contacts(contacts)
        self.process_imu(imu)
