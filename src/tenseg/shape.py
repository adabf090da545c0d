"""Shape reconstruction for the 3-bar prism tensegrity robot.

Recovers the six endcap positions in the body frame from the nine cable
length measurements by constrained least squares: minimize the squared
mismatch between estimated endcap distances and measured cable lengths,
subject to the fixed base-rod coordinates, rod-length equalities,
half-plane sign constraints, rod non-crossing constraints, and twist
chirality constraints.

The base-rod endcaps q0, q1 are pinned by construction and eliminated
from the decision variables, leaving 12 unknowns (q2..q5).  The solver
is an augmented-Lagrangian outer loop around a damped Gauss-Newton
inner step; strict inequalities g > 0 are enforced as g >= margin.

Also exposes the contact-kinematics functions consumed by the filter:
h_p (contact endcap position), h_R (gravity-aligned contact frame), and
J_p (finite-difference Jacobian of h_p w.r.t. the cable lengths).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liegroup import rotation_to_z

# Endcap pairs connected by actuated cables: three top side cables,
# three bottom side cables, three cross cables.
CABLE_PAIRS = ((0, 4), (0, 2), (2, 4),
               (1, 5), (1, 3), (3, 5),
               (1, 4), (0, 3), (2, 5))

_PAIR_I = np.array([p[0] for p in CABLE_PAIRS])
_PAIR_J = np.array([p[1] for p in CABLE_PAIRS])

# Triangles among the side cables; used for the measurement sanity check.
_TRIANGLES = (((0, 2), (2, 4), (0, 4)), ((1, 3), (3, 5), (1, 5)))

GRAVITY_MAG = 9.81


class ShapeError(Exception):
    """Base class for shape-module failures."""


class MeasurementRejected(ShapeError):
    """Cable lengths are mutually inconsistent (triangle inequality)."""


class ShapeSolverFailure(ShapeError):
    """Solver did not reach a feasible stationary point.

    Carries the best iterate and its constraint report for diagnosis.
    """

    def __init__(self, message, best_shape=None, report=None):
        super().__init__(message)
        self.best_shape = best_shape
        self.report = report


class JacobianUnavailable(ShapeError):
    """A perturbed solve inside J_p failed; caller should fall back."""


@dataclass(frozen=True)
class CableMeasurements:
    """Nine measured cable lengths [m], keyed by endcap pair."""

    timestamp: float
    lengths: dict

    def __post_init__(self):
        keys = set(self.lengths)
        expected = set(CABLE_PAIRS)
        if keys != expected:
            raise ValueError(
                f"cable set mismatch: missing {sorted(expected - keys)}, "
                f"unexpected {sorted(keys - expected)}"
            )

    def as_vector(self):
        """Lengths ordered like CABLE_PAIRS."""
        return np.array([self.lengths[p] for p in CABLE_PAIRS])

    @staticmethod
    def from_vector(timestamp, vec):
        return CableMeasurements(timestamp, dict(zip(CABLE_PAIRS, map(float, vec))))


@dataclass(frozen=True)
class RobotShape:
    """Six endcap positions q0..q5 in the body frame, plus solve residual."""

    timestamp: float
    q: np.ndarray               # (6, 3)
    residual: float = 0.0       # objective value at the solution [m^2]

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        if q.shape != (6, 3):
            raise ValueError("q must be (6, 3)")
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    def cable_lengths(self):
        """Pairwise distances over the cable set, ordered like CABLE_PAIRS."""
        return np.linalg.norm(self.q[_PAIR_I] - self.q[_PAIR_J], axis=1)


@dataclass(frozen=True)
class ShapeSolverConfig:
    L_rod: float = 1.45
    d_offset: float = 0.0
    rod_tol: float = 1e-6
    inequality_margin: float = 1e-4
    convergence_tol: float = 1e-8
    max_iterations: int = 40            # outer augmented-Lagrangian iterations
    inner_iterations: int = 60
    mu_init: float = 10.0
    mu_factor: float = 10.0
    mu_max: float = 1e9
    triangle_tol: float = 1e-3          # slack for the cable triangle check
    fd_step: float = 1e-4               # J_p central-difference step [m]

    def __post_init__(self):
        if self.L_rod <= 0 or self.rod_tol <= 0 or self.inequality_margin <= 0:
            raise ValueError("L_rod, rod_tol, inequality_margin must be positive")


def base_rod_endcaps(cfg: ShapeSolverConfig):
    """Pinned body-frame coordinates of q0 and q1."""
    half = cfg.L_rod / 2.0
    q0 = np.array([0.0, 0.0, half - cfg.d_offset])
    q1 = np.array([0.0, 0.0, -half - cfg.d_offset])
    return q0, q1


# ---------------------------------------------------------------------------
# Canonical prism construction


def prism_from_parameters(cfg: ShapeSolverConfig, radius, twist):
    """Endcap positions of a symmetric twisted 3-prism in the body frame.

    Top endcaps (s0, s2, s4) sit on a circle of the given radius at
    120-degree spacing; bottom endcaps (s1, s3, s5) are rotated by the
    twist angle.  Prism height follows from the rod length.  The result
    is rigidly moved so the base rod lands on the pinned coordinates.
    """
    L = cfg.L_rod
    chord_sq = 2.0 * radius**2 * (1.0 - np.cos(twist))
    if chord_sq >= L**2:
        raise ValueError("twist/radius incompatible with rod length")
    h = np.sqrt(L**2 - chord_sq)
    q = np.zeros((6, 3))
    for k, top_id, bot_id in ((0, 0, 1), (1, 2, 3), (2, 4, 5)):
        a_top = 2.0 * np.pi * k / 3.0
        a_bot = a_top + twist
        q[top_id] = [radius * np.cos(a_top), radius * np.sin(a_top), h / 2.0]
        q[bot_id] = [radius * np.cos(a_bot), radius * np.sin(a_bot), -h / 2.0]

    # Rigid transform: base rod axis to +z, rod midpoint to [0, 0, -d_offset].
    R = rotation_to_z((q[0] - q[1]) / L)
    mid = (q[0] + q[1]) / 2.0
    q = (q - mid) @ R.T
    q[:, 2] -= cfg.d_offset
    return q


def canonical_prism(cfg: ShapeSolverConfig, radius_frac=0.35, twist=5.0 * np.pi / 6.0):
    """Feasible symmetric prism used as the cold-start iterate.

    The twist sign is chosen so the chirality constraints hold.
    """
    radius = radius_frac * cfg.L_rod
    for tw in (twist, -twist):
        q = prism_from_parameters(cfg, radius, tw)
        if check_constraints(RobotShape(0.0, q), cfg).passed:
            return q
    raise ShapeSolverFailure("no chirality-feasible canonical prism found")


# Fixed offsets breaking the prism symmetry; at the perfectly symmetric
# prism the cable-to-shape map is near-singular (symmetric measurements
# admit additional solution branches), so well-conditioned reference
# work uses this generic stance instead.
_STANCE_OFFSETS = np.array([
    [-0.0203, -0.1082, 0.0235],
    [0.0180, -0.0090, 0.0250],
    [0.0550, 0.0135, 0.0528],
    [0.0650, -0.0036, 0.0307],
])


def asymmetric_stance(cfg: ShapeSolverConfig):
    """Feasible generic (non-symmetric) shape with exact rod lengths."""
    q = canonical_prism(cfg)
    q[2:] += _STANCE_OFFSETS
    for i, j in ((2, 3), (4, 5)):
        m = (q[i] + q[j]) / 2.0
        u = q[i] - q[j]
        u /= np.linalg.norm(u)
        q[i] = m + cfg.L_rod / 2.0 * u
        q[j] = m - cfg.L_rod / 2.0 * u
    return q


# ---------------------------------------------------------------------------
# Constraint definitions
#
# Affine combinations of endcap positions are given as {endcap: coeff}
# term maps.  Each rod non-crossing constraint is <a x b, w> > 0 and each
# chirality constraint is <u, v> > 0 with affine a, b, w, u, v.

_GEO_TERMS = (
    # <(c23-c01) x (c45-c23), q2-q3>
    ({2: 0.5, 3: 0.5, 0: -0.5, 1: -0.5},
     {4: 0.5, 5: 0.5, 2: -0.5, 3: -0.5},
     {2: 1.0, 3: -1.0}),
    # <(c45-c23) x (c01-c45), q4-q5>
    ({4: 0.5, 5: 0.5, 2: -0.5, 3: -0.5},
     {0: 0.5, 1: 0.5, 4: -0.5, 5: -0.5},
     {4: 1.0, 5: -1.0}),
    # <(c01-c45) x (c23-c01), q0-q1>
    ({0: 0.5, 1: 0.5, 4: -0.5, 5: -0.5},
     {2: 0.5, 3: 0.5, 0: -0.5, 1: -0.5},
     {0: 1.0, 1: -1.0}),
)

_CHIRALITY_TERMS = (
    ({2: 1.0, 4: -1.0}, {5: 1.0, 1: -1.0}),   # <q2-q4, q5-q1>
    ({0: 1.0, 2: -1.0}, {3: 1.0, 5: -1.0}),   # <q0-q2, q3-q5>
    ({4: 1.0, 0: -1.0}, {1: 1.0, 3: -1.0}),   # <q4-q0, q1-q3>
)

# Half-plane sign constraints: (endcap, sign) with sign * q_z > 0.
_Z_SIGNS = ((2, 1.0), (4, 1.0), (3, -1.0), (5, -1.0))


def _terms_matrix(term_dicts):
    M = np.zeros((len(term_dicts), 6))
    for r, d in enumerate(term_dicts):
        for e, c in d.items():
            M[r, e] = c
    return M


_GEO_A = _terms_matrix([t[0] for t in _GEO_TERMS])
_GEO_B = _terms_matrix([t[1] for t in _GEO_TERMS])
_GEO_W = _terms_matrix([t[2] for t in _GEO_TERMS])
_CHI_U = _terms_matrix([t[0] for t in _CHIRALITY_TERMS])
_CHI_V = _terms_matrix([t[1] for t in _CHIRALITY_TERMS])

_Z_GRADS = np.zeros((4, 12))
for _k, (_e, _s) in enumerate(_Z_SIGNS):
    _Z_GRADS[_k, 3 * (_e - 2) + 2] = _s


def _inequality_values_grads(q):
    """All 10 inequality constraint values g (required > 0) and gradients.

    Order: 4 half-plane signs, 3 rod non-crossing, 3 chirality.
    Gradients are w.r.t. the free variables (q2..q5 flattened, 12).
    """
    vals = np.empty(10)
    grads = np.empty((10, 12))
    vals[:4] = [s * q[e, 2] for e, s in _Z_SIGNS]
    grads[:4] = _Z_GRADS

    a, b, w = _GEO_A @ q, _GEO_B @ q, _GEO_W @ q
    axb = np.cross(a, b)
    vals[4:7] = np.einsum("ij,ij->i", axb, w)
    g = (_GEO_A[:, :, None] * np.cross(b, w)[:, None, :]
         + _GEO_B[:, :, None] * np.cross(w, a)[:, None, :]
         + _GEO_W[:, :, None] * axb[:, None, :])
    grads[4:7] = g[:, 2:, :].reshape(3, 12)

    u, v = _CHI_U @ q, _CHI_V @ q
    vals[7:] = np.einsum("ij,ij->i", u, v)
    g = _CHI_U[:, :, None] * v[:, None, :] + _CHI_V[:, :, None] * u[:, None, :]
    grads[7:] = g[:, 2:, :].reshape(3, 12)
    return vals, grads


_INEQ_NAMES = ("upper_z_q2", "upper_z_q4", "lower_z_q3", "lower_z_q5",
               "no_cross_r23", "no_cross_r45", "no_cross_r01",
               "chirality_024", "chirality_120", "chirality_240")


_ROWS_I = np.where(_PAIR_I >= 2)[0]
_ROWS_J = np.where(_PAIR_J >= 2)[0]


def _cable_residual_grad(q, lengths):
    """Cable length residuals (9,) and their Jacobian w.r.t. free vars."""
    diff = q[_PAIR_I] - q[_PAIR_J]
    norms = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    r = norms - lengths
    unit = diff / norms[:, None]
    Jr = np.zeros((9, 4, 3))
    Jr[_ROWS_I, _PAIR_I[_ROWS_I] - 2] = unit[_ROWS_I]
    Jr[_ROWS_J, _PAIR_J[_ROWS_J] - 2] -= unit[_ROWS_J]
    return r, Jr.reshape(9, 12)


def _rod_eq_residual_grad(q, L):
    """Rod-length equality residuals for r23, r45 and their Jacobians."""
    c = np.empty(2)
    Jc = np.zeros((2, 12))
    for k, (i, j) in enumerate(((2, 3), (4, 5))):
        d = q[i] - q[j]
        n = np.linalg.norm(d)
        c[k] = n - L
        u = d / n
        Jc[k, 3 * (i - 2):3 * (i - 2) + 3] = u
        Jc[k, 3 * (j - 2):3 * (j - 2) + 3] = -u
    return c, Jc


# ---------------------------------------------------------------------------
# Constraint report


@dataclass(frozen=True)
class ConstraintReport:
    """Signed margins for the 11 constraint groups; positive is feasible.

    Equality groups report (tolerance - violation); inequality groups
    report the raw constraint value, which must exceed zero.
    """

    margins: dict
    passed: bool

    def failing(self):
        return [k for k, v in self.margins.items() if v < 0]


def check_constraints(shape: RobotShape, cfg: ShapeSolverConfig) -> ConstraintReport:
    q = shape.q
    q0, q1 = base_rod_endcaps(cfg)
    margins = {}
    margins["fixed_q0"] = cfg.rod_tol - np.max(np.abs(q[0] - q0))
    margins["fixed_q1"] = cfg.rod_tol - np.max(np.abs(q[1] - q1))
    vals, _ = _inequality_values_grads(q)
    margins["upper_half_plane"] = min(vals[0], vals[1])
    margins["lower_half_plane"] = min(vals[2], vals[3])
    rod_err = max(
        abs(np.linalg.norm(q[0] - q[1]) - cfg.L_rod),
        abs(np.linalg.norm(q[2] - q[3]) - cfg.L_rod),
        abs(np.linalg.norm(q[4] - q[5]) - cfg.L_rod),
    )
    margins["rod_lengths"] = cfg.rod_tol - rod_err
    for name, v in zip(_INEQ_NAMES[4:], vals[4:]):
        margins[name] = v
    return ConstraintReport(margins=margins, passed=all(v >= 0 for v in margins.values()))


# ---------------------------------------------------------------------------
# Solver


def _check_triangles(lengths_by_pair, tol):
    for tri in _TRIANGLES:
        ls = [lengths_by_pair[p] for p in tri]
        for k in range(3):
            if ls[k] > ls[(k + 1) % 3] + ls[(k + 2) % 3] + tol:
                raise MeasurementRejected(
                    f"cable triple {tri} violates the triangle inequality: {ls}"
                )


def _al_residual_jac(x, q_fixed, lengths, cfg, lam_eq, lam_in, mu):
    """Stacked augmented-Lagrangian residual vector and Jacobian.

    The AL objective is 0.5*||rho||^2 (up to a constant), covering the
    cable objective, the rod equalities, and the PHR terms for the
    inequalities g >= margin.
    """
    q = q_fixed.copy()
    q[2:] = x.reshape(4, 3)
    r, Jr = _cable_residual_grad(q, lengths)
    c, Jc = _rod_eq_residual_grad(q, cfg.L_rod)
    g, Jg = _inequality_values_grads(q)
    gt = g - cfg.inequality_margin
    act = (lam_in - mu * gt) > 0.0
    sqrt_mu = np.sqrt(mu)
    rho = np.concatenate([
        np.sqrt(2.0) * r,
        sqrt_mu * (c + lam_eq / mu),
        np.where(act, (lam_in - mu * gt) / sqrt_mu, 0.0),
    ])
    Jrho = np.vstack([
        np.sqrt(2.0) * Jr,
        sqrt_mu * Jc,
        np.where(act[:, None], -sqrt_mu * Jg, 0.0),
    ])
    return rho, Jrho, c, gt


def _gauss_newton_inner(x, q_fixed, lengths, cfg, lam_eq, lam_in, mu, gtol):
    """Damped (Levenberg) Gauss-Newton on the AL subproblem."""
    rho, Jrho, c, gt = _al_residual_jac(x, q_fixed, lengths, cfg, lam_eq, lam_in, mu)
    cost = 0.5 * rho @ rho
    nu = 1e-6
    for _ in range(cfg.inner_iterations):
        grad = Jrho.T @ rho
        if np.max(np.abs(grad)) <= gtol:
            break
        H = Jrho.T @ Jrho
        accepted = False
        for _ in range(25):
            try:
                step = np.linalg.solve(H + nu * np.eye(12), -grad)
            except np.linalg.LinAlgError:
                nu *= 10.0
                continue
            x_new = x + step
            rho_new, Jrho_new, c_new, gt_new = _al_residual_jac(
                x_new, q_fixed, lengths, cfg, lam_eq, lam_in, mu)
            cost_new = 0.5 * rho_new @ rho_new
            if cost_new < cost:
                x, rho, Jrho, c, gt, cost = x_new, rho_new, Jrho_new, c_new, gt_new, cost_new
                nu = max(nu * 0.25, 1e-12)
                accepted = True
                break
            nu *= 4.0
        if not accepted:
            break
    return x, rho, Jrho, c, gt


def _kkt_residual(x, q_fixed, lengths, cfg):
    """First-order optimality residual, independent of the penalty weight.

    Fits multipliers for the rod equalities (and any near-active
    inequalities) by least squares and returns the norm of the cable
    gradient left unexplained by them, together with the worst
    constraint violation.  Unlike the augmented-Lagrangian gradient,
    this does not inherit the mu * machine-epsilon noise floor, so it
    stays meaningful at large penalty weights.
    """
    q = q_fixed.copy()
    q[2:] = x.reshape(4, 3)
    r, Jr = _cable_residual_grad(q, lengths)
    c, Jc = _rod_eq_residual_grad(q, cfg.L_rod)
    g, Jg = _inequality_values_grads(q)
    gt = g - cfg.inequality_margin
    g_obj = 2.0 * (Jr.T @ r)
    A = [Jc]
    near = gt <= 1e-6
    if np.any(near):
        A.append(Jg[near])
    A = np.vstack(A)
    lam, *_ = np.linalg.lstsq(A.T, g_obj, rcond=None)
    kkt = float(np.max(np.abs(g_obj - A.T @ lam)))
    viol = float(max(np.max(np.abs(c)), max(0.0, -np.min(gt))))
    return kkt, viol


def _align_gauge(p, ref):
    """Rotate points about the body z-axis to best match the reference.

    Rotations about the base-rod axis preserve all nine cable lengths
    and every constraint, so the optimum is only determined up to this
    one-parameter family; pinning it to the warm start keeps the shape
    continuous across frames.
    """
    A = float(p[:, 0] @ ref[:, 0] + p[:, 1] @ ref[:, 1])
    B = float(p[:, 0] @ ref[:, 1] - p[:, 1] @ ref[:, 0])
    if A == 0.0 and B == 0.0:
        return p
    theta = np.arctan2(B, A)
    c, s = np.cos(theta), np.sin(theta)
    out = p.copy()
    out[:, 0] = c * p[:, 0] - s * p[:, 1]
    out[:, 1] = s * p[:, 0] + c * p[:, 1]
    return out


def reconstruct_shape(meas: CableMeasurements, prior: RobotShape | None,
                      cfg: ShapeSolverConfig) -> RobotShape:
    """Solve the constrained shape problem for one cable measurement.

    Warm-starts from the prior shape when given, otherwise from the
    canonical symmetric prism; if a warm-started solve stalls, it is
    retried once from the canonical prism.  Deterministic: identical
    inputs yield bit-identical outputs.  The azimuthal gauge freedom
    about the base rod is pinned to the warm start.

    Raises MeasurementRejected for mutually inconsistent cable lengths
    and ShapeSolverFailure when no feasible stationary point is reached.
    """
    try:
        return _reconstruct_once(meas, prior, cfg)
    except ShapeSolverFailure:
        if prior is None:
            raise
        return _reconstruct_once(meas, None, cfg)


def _reconstruct_once(meas, prior, cfg):
    for p, l in meas.lengths.items():
        if not (0.0 < l < 2.0 * cfg.L_rod):
            raise MeasurementRejected(f"cable {p} length {l} outside (0, 2*L_rod)")
    _check_triangles(meas.lengths, cfg.triangle_tol)
    lengths = meas.as_vector()

    q0, q1 = base_rod_endcaps(cfg)
    q_fixed = np.zeros((6, 3))
    q_fixed[0], q_fixed[1] = q0, q1
    if prior is not None:
        x = prior.q[2:].ravel().copy()
    else:
        x = canonical_prism(cfg)[2:].ravel()
    x_start = x.copy()

    lam_eq = np.zeros(2)
    lam_in = np.zeros(10)
    mu = cfg.mu_init
    omega = 1e-2          # inner stationarity tolerance, tightened per outer pass
    converged = False
    prev_grad = np.inf
    for _ in range(cfg.max_iterations):
        x, rho, Jrho, c, gt = _gauss_newton_inner(
            x, q_fixed, lengths, cfg, lam_eq, lam_in, mu, omega)
        kkt, viol = _kkt_residual(x, q_fixed, lengths, cfg)
        grad = np.max(np.abs(Jrho.T @ rho))
        if viol <= cfg.rod_tol and kkt <= cfg.convergence_tol:
            converged = True
            break
        lam_eq = lam_eq + mu * c
        lam_in = np.maximum(0.0, lam_in - mu * gt)
        if viol <= cfg.rod_tol:
            omega = max(cfg.convergence_tol, omega * 0.1)
            if grad > 0.5 * prev_grad:
                # feasible but the multiplier iteration is converging
                # slowly (weakly active inequality); a larger penalty
                # speeds up the dual rate.
                mu = min(mu * cfg.mu_factor, cfg.mu_max)
        else:
            mu = min(mu * cfg.mu_factor, cfg.mu_max)
            omega = max(cfg.convergence_tol, 1e-2 / mu)
        prev_grad = grad

    q = q_fixed.copy()
    q[2:] = _align_gauge(x.reshape(4, 3), x_start.reshape(4, 3))
    r, _ = _cable_residual_grad(q, lengths)
    shape = RobotShape(meas.timestamp, q, residual=float(r @ r))
    report = check_constraints(shape, cfg)
    if not report.passed or not converged:
        raise ShapeSolverFailure(
            f"shape solve did not converge (converged={converged}, "
            f"failing constraints: {report.failing()})",
            best_shape=shape, report=report)
    return shape


# ---------------------------------------------------------------------------
# Contact kinematics


def h_p(shape: RobotShape, contact_endcap: int):
    """Body-frame position of the contact endcap (point-contact model)."""
    if not (isinstance(contact_endcap, (int, np.integer)) and 0 <= contact_endcap <= 5):
        raise ValueError(f"invalid endcap id {contact_endcap!r}")
    return shape.q[contact_endcap].copy()


def h_R(shape, accel):
    """Gravity-aligned contact frame from the accelerometer reading.

    Third column is -accel/||accel||; first column is the body x-axis
    projected onto the orthogonal plane; right-handed completion.
    Returns (rotation, ok).  Degenerate readings (near-zero norm, or
    accel parallel to the body x-axis) fall back to identity, ok=False.
    """
    a = np.asarray(accel, dtype=float)
    n = np.linalg.norm(a)
    if n <= 0.5 * GRAVITY_MAG:
        return np.eye(3), False
    z = -a / n
    ex = np.array([1.0, 0.0, 0.0])
    x = ex - (ex @ z) * z
    nx = np.linalg.norm(x)
    if nx < 1e-6:
        return np.eye(3), False
    x = x / nx
    y = np.cross(z, x)
    return np.column_stack([x, y, z]), True


def J_p(meas: CableMeasurements, contact_endcap: int, cfg: ShapeSolverConfig,
        prior: RobotShape | None = None):
    """3x9 Jacobian of h_p w.r.t. the nine cable lengths.

    Central finite differences with step cfg.fd_step; each perturbed
    solve is warm-started from the nominal solution.  Columns follow
    CABLE_PAIRS order.
    """
    nominal = reconstruct_shape(meas, prior, cfg)
    vec = meas.as_vector()
    J = np.zeros((3, 9))
    for k in range(9):
        cols = []
        for sgn in (+1.0, -1.0):
            pert = vec.copy()
            pert[k] += sgn * cfg.fd_step
            try:
                s = reconstruct_shape(
                    CableMeasurements.from_vector(meas.timestamp, pert), nominal, cfg)
            except ShapeError as e:
                raise JacobianUnavailable(
                    f"perturbed solve failed for cable {CABLE_PAIRS[k]}: {e}") from e
            cols.append(h_p(s, contact_endcap))
        J[:, k] = (cols[0] - cols[1]) / (2.0 * cfg.fd_step)
    return J
