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

import math
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
        if _constraints_pass(q, cfg):
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
_Z_FLAT = np.array([3 * e + 2 for e, _ in _Z_SIGNS])
_Z_SIGN = np.array([s for _, s in _Z_SIGNS])

# The kernels below are fixed-size code for 12 unknowns, 9 cables, 2
# rod equalities and 10 inequalities.  Element by element they repeat
# the arithmetic of the plain np.cross / einsum formulation kept as the
# reference in tests/test_shape.py, so every solve is bit-identical to
# it; a residual and its Jacobian are separate calls because a rejected
# trial step needs no Jacobian.

# Coefficients of the free endcaps q2..q5, shaped to broadcast against
# one 3-vector per constraint row: (3, 4, 1).
_GEO_A2, _GEO_B2, _GEO_W2, _CHI_U2, _CHI_V2 = (
    M[:, 2:, None].copy() for M in (_GEO_A, _GEO_B, _GEO_W, _CHI_U, _CHI_V))


def _cross_index():
    """Flat gather indices into the stacked rows [a; b; w] (9, 3).

    Crossing those rows with the rows [b; w; a] gives a x b, b x w and
    w x a.  Component k is l[k1] * r[k2] - l[k2] * r[k1] with
    (k1, k2) = (1, 2), (2, 0), (0, 1), the order np.cross uses.
    """
    rows = np.arange(9)[:, None]
    right = (rows + 3) % 9
    k1 = np.array([1, 2, 0])
    k2 = np.array([2, 0, 1])
    return np.stack([3 * rows + k1, 3 * right + k2, 3 * rows + k2, 3 * right + k1])


_CROSS_IDX = _cross_index()


def _inequality_values(q):
    """All 10 inequality constraint values g (required > 0).

    Order: 4 half-plane signs, 3 rod non-crossing, 3 chirality.  Also
    returns the cross products and chirality vectors from which
    _inequality_grads builds the gradients.
    """
    vals = np.empty(10)
    np.multiply(_Z_SIGN, q.take(_Z_FLAT), out=vals[:4])
    abw = np.empty((9, 3))
    np.matmul(_GEO_A, q, out=abw[:3])
    np.matmul(_GEO_B, q, out=abw[3:6])
    np.matmul(_GEO_W, q, out=abw[6:])
    t = abw.take(_CROSS_IDX)
    cr = t[0] * t[1]
    cr -= t[2] * t[3]
    vals[4:7] = np.einsum("ij,ij->i", cr[:3], abw[6:])
    uv = np.empty((6, 3))
    np.matmul(_CHI_U, q, out=uv[:3])
    np.matmul(_CHI_V, q, out=uv[3:])
    vals[7:] = np.einsum("ij,ij->i", uv[:3], uv[3:])
    return vals, (cr, uv)


def _inequality_grads(cr, uv):
    """Gradients (10, 12) of the inequalities w.r.t. the free variables."""
    grads = np.empty((10, 12))
    grads[:4] = _Z_GRADS
    G = grads.reshape(10, 4, 3)
    cr = cr.reshape(3, 3, 1, 3)       # a x b, b x w, w x a
    g = G[4:7]
    np.multiply(_GEO_A2, cr[1], out=g)
    g += _GEO_B2 * cr[2]
    g += _GEO_W2 * cr[0]
    uv = uv.reshape(2, 3, 1, 3)
    g = G[7:]
    np.multiply(_CHI_U2, uv[1], out=g)
    g += _CHI_V2 * uv[0]
    return grads


def _inequality_values_grads(q):
    """Inequality values (10,) and gradients w.r.t. q2..q5 flattened (10, 12)."""
    vals, parts = _inequality_values(q)
    return vals, _inequality_grads(*parts)


_INEQ_NAMES = ("upper_z_q2", "upper_z_q4", "lower_z_q3", "lower_z_q5",
               "no_cross_r23", "no_cross_r45", "no_cross_r01",
               "chirality_024", "chirality_120", "chirality_240")


def _jacobian_slots(rows, ends):
    """Flat indices of the (row, free endcap) 3-blocks of an (n, 12) Jacobian."""
    return (12 * np.asarray(rows)[:, None] + 3 * (np.asarray(ends)[:, None] - 2)
            + np.arange(3)).ravel()


_ROWS_I = np.where(_PAIR_I >= 2)[0]
_ROWS_J = np.where(_PAIR_J >= 2)[0]
_JR_I = _jacobian_slots(_ROWS_I, _PAIR_I[_ROWS_I])
_JR_J = _jacobian_slots(_ROWS_J, _PAIR_J[_ROWS_J])

# Free rods r23 and r45: endcap rows and Jacobian slots of +u and -u.
_ROD_I = np.array([2, 4])
_ROD_J = np.array([3, 5])
_JC_I = _jacobian_slots([0, 1], _ROD_I)
_JC_J = _jacobian_slots([0, 1], _ROD_J)


def _cable_residual(q, lengths):
    """Cable length residuals (9,), plus the differences and norms behind them."""
    diff = q.take(_PAIR_I, axis=0)
    diff -= q.take(_PAIR_J, axis=0)
    norms = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return norms - lengths, (diff, norms)


def _cable_jacobian(diff, norms):
    unit = diff / norms[:, None]
    Jr = np.zeros(108)
    Jr[_JR_I] = unit.take(_ROWS_I, axis=0).ravel()
    # Subtracted from zero rather than negated: zeros keep their sign.
    Jr[_JR_J] -= unit.take(_ROWS_J, axis=0).ravel()
    return Jr.reshape(9, 12)


def _cable_residual_grad(q, lengths):
    """Cable length residuals (9,) and their Jacobian w.r.t. free vars."""
    r, parts = _cable_residual(q, lengths)
    return r, _cable_jacobian(*parts)


def _rod_eq_residual(q, L):
    """Rod-length equality residuals for r23, r45, plus their differences and norms."""
    d = q.take(_ROD_I, axis=0)
    d -= q.take(_ROD_J, axis=0)
    # Row by row through ndarray.dot, as np.linalg.norm does.
    n = np.sqrt([d[0].dot(d[0]), d[1].dot(d[1])])
    return n - L, (d, n)


def _rod_eq_jacobian(d, n):
    u = d / n[:, None]
    Jc = np.zeros(24)
    Jc[_JC_I] = u.ravel()
    Jc[_JC_J] = -u.ravel()
    return Jc.reshape(2, 12)


def _rod_eq_residual_grad(q, L):
    """Rod-length equality residuals for r23, r45 and their Jacobians."""
    c, parts = _rod_eq_residual(q, L)
    return c, _rod_eq_jacobian(*parts)


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


_MARGIN_NAMES = ("fixed_q0", "fixed_q1", "upper_half_plane",
                 "lower_half_plane", "rod_lengths") + _INEQ_NAMES[4:]


def _margins(q, cfg: ShapeSolverConfig):
    """The 11 constraint margins of endcaps q, in _MARGIN_NAMES order."""
    vals = _inequality_values(q)[0].tolist()
    fixed = np.abs(q[:2] - base_rod_endcaps(cfg)).max(axis=1).tolist()
    rod_err = max(abs(math.sqrt(d.dot(d)) - cfg.L_rod)
                  for d in q[0::2] - q[1::2])
    return (cfg.rod_tol - fixed[0], cfg.rod_tol - fixed[1],
            min(vals[0], vals[1]), min(vals[2], vals[3]),
            cfg.rod_tol - rod_err, *vals[4:])


def _constraints_pass(q, cfg: ShapeSolverConfig):
    """check_constraints(...).passed without building the report."""
    return all(v >= 0 for v in _margins(q, cfg))


def check_constraints(shape: RobotShape, cfg: ShapeSolverConfig) -> ConstraintReport:
    margins = dict(zip(_MARGIN_NAMES, _margins(shape.q, cfg)))
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


_SQRT2 = np.sqrt(2.0)
_EYE12 = np.eye(12)


class _Iterate:
    """Constraint terms at one iterate x of the free variables.

    They depend on x alone, not on the multipliers or the penalty
    weight, so an iterate carried into the next outer pass is not
    evaluated again.  The Jacobians and the KKT residual are computed
    on first use: a rejected trial step needs neither.
    """

    def __init__(self, x, q_fixed, lengths, cfg):
        q = q_fixed.copy()
        q[2:] = x.reshape(4, 3)
        self.x = x
        self.r, self._cable = _cable_residual(q, lengths)
        self.c, self._rod = _rod_eq_residual(q, cfg.L_rod)
        g, self._ineq = _inequality_values(q)
        self.gt = g - cfg.inequality_margin
        self._jacobians = None
        self._kkt = None

    def jacobians(self):
        """(Jr, Jc, Jg) w.r.t. the free variables."""
        if self._jacobians is None:
            self._jacobians = (_cable_jacobian(*self._cable),
                               _rod_eq_jacobian(*self._rod),
                               _inequality_grads(*self._ineq))
        return self._jacobians

    def kkt_residual(self):
        """First-order optimality residual, independent of the penalty weight.

        Fits multipliers for the rod equalities (and any near-active
        inequalities) by least squares and returns the norm of the cable
        gradient left unexplained by them, together with the worst
        constraint violation.  Unlike the augmented-Lagrangian gradient,
        this does not inherit the mu * machine-epsilon noise floor, so it
        stays meaningful at large penalty weights.
        """
        if self._kkt is None:
            Jr, Jc, Jg = self.jacobians()
            g_obj = 2.0 * (Jr.T @ self.r)
            A = np.vstack([Jc, Jg[self.gt <= 1e-6]])
            lam, *_ = np.linalg.lstsq(A.T, g_obj, rcond=None)
            kkt = float(np.max(np.abs(g_obj - A.T @ lam)))
            viol = float(max(np.max(np.abs(self.c)), max(0.0, -np.min(self.gt))))
            self._kkt = kkt, viol
        return self._kkt


def _al_residual(it, lam_eq, lam_in, mu):
    """Stacked augmented-Lagrangian residual vector and active set at it.

    The AL objective is 0.5*||rho||^2 (up to a constant), covering the
    cable objective, the rod equalities, and the PHR terms for the
    inequalities g >= margin.
    """
    slack = lam_in - mu * it.gt
    act = slack > 0.0
    sqrt_mu = np.sqrt(mu)
    rho = np.zeros(21)
    np.multiply(_SQRT2, it.r, out=rho[:9])
    np.multiply(sqrt_mu, it.c + lam_eq / mu, out=rho[9:11])
    np.divide(slack, sqrt_mu, out=rho[11:], where=act)
    return rho, act


def _al_jacobian(it, act, mu):
    """Jacobian of rho at it for the active set act."""
    Jr, Jc, Jg = it.jacobians()
    sqrt_mu = np.sqrt(mu)
    Jrho = np.zeros((21, 12))
    np.multiply(_SQRT2, Jr, out=Jrho[:9])
    np.multiply(sqrt_mu, Jc, out=Jrho[9:11])
    np.multiply(-sqrt_mu, Jg, out=Jrho[11:], where=act[:, None])
    return Jrho


def _gauss_newton_inner(it, q_fixed, lengths, cfg, lam_eq, lam_in, mu, gtol):
    """Damped (Levenberg) Gauss-Newton on the AL subproblem.

    Returns the last accepted iterate with its AL residual and Jacobian.
    """
    rho, act = _al_residual(it, lam_eq, lam_in, mu)
    Jrho = _al_jacobian(it, act, mu)
    cost = 0.5 * rho @ rho
    nu = 1e-6
    for _ in range(cfg.inner_iterations):
        grad = Jrho.T @ rho
        if np.abs(grad).max() <= gtol:
            break
        H = Jrho.T @ Jrho
        accepted = False
        for _ in range(25):
            try:
                step = np.linalg.solve(H + nu * _EYE12, -grad)
            except np.linalg.LinAlgError:
                nu *= 10.0
                continue
            trial = _Iterate(it.x + step, q_fixed, lengths, cfg)
            rho_new, act = _al_residual(trial, lam_eq, lam_in, mu)
            cost_new = 0.5 * rho_new @ rho_new
            if cost_new < cost:
                it, rho, cost = trial, rho_new, cost_new
                Jrho = _al_jacobian(it, act, mu)
                nu = max(nu * 0.25, 1e-12)
                accepted = True
                break
            nu *= 4.0
        if not accepted:
            break
    return it, rho, Jrho


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
    it = _Iterate(x, q_fixed, lengths, cfg)

    lam_eq = np.zeros(2)
    lam_in = np.zeros(10)
    mu = cfg.mu_init
    omega = 1e-2          # inner stationarity tolerance, tightened per outer pass
    converged = False
    prev_grad = np.inf
    for _ in range(cfg.max_iterations):
        it, rho, Jrho = _gauss_newton_inner(
            it, q_fixed, lengths, cfg, lam_eq, lam_in, mu, omega)
        kkt, viol = it.kkt_residual()
        grad = np.max(np.abs(Jrho.T @ rho))
        if viol <= cfg.rod_tol and kkt <= cfg.convergence_tol:
            converged = True
            break
        lam_eq = lam_eq + mu * it.c
        lam_in = np.maximum(0.0, lam_in - mu * it.gt)
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
    q[2:] = _align_gauge(it.x.reshape(4, 3), x_start.reshape(4, 3))
    r, _ = _cable_residual(q, lengths)
    shape = RobotShape(meas.timestamp, q, residual=float(r @ r))
    if not (converged and _constraints_pass(q, cfg)):
        report = check_constraints(shape, cfg)
        raise ShapeSolverFailure(
            f"shape solve did not converge (converged={converged}, "
            f"failing constraints: {report.failing()})",
            best_shape=shape, report=report)
    return shape


# ---------------------------------------------------------------------------
# Contact kinematics


def _check_endcap_id(endcap):
    if not (isinstance(endcap, (int, np.integer)) and 0 <= endcap <= 5):
        raise ValueError(f"invalid endcap id {endcap!r}")


def h_p(shape: RobotShape, contact_endcap: int):
    """Body-frame position of the contact endcap (point-contact model)."""
    _check_endcap_id(contact_endcap)
    return shape.q[contact_endcap].copy()


def h_R(shape, accel):
    """Gravity-aligned contact frame from the accelerometer reading.

    Third column is -accel/||accel||; first column is the body x-axis
    projected onto the orthogonal plane; right-handed completion.
    Returns (rotation, ok).  Degenerate readings (near-zero norm, or
    accel parallel to the body x-axis) fall back to identity, ok=False.
    """
    # Scalar arithmetic in the order of the array formulation: z = -a / |a|,
    # x = e_x - (e_x . z) z normalized, y = cross(z, x) as np.cross forms it;
    # the norms stay numpy's dot products.
    a = np.ascontiguousarray(accel, dtype=float)
    n = np.sqrt(a.dot(a))
    if n <= 0.5 * GRAVITY_MAG:
        return np.eye(3), False
    z0, z1, z2 = (-a / n).tolist()
    x = np.array((1.0 - z0 * z0, 0.0 - z0 * z1, 0.0 - z0 * z2))   # e_x . z = z0
    nx = np.sqrt(x.dot(x))
    if nx < 1e-6:
        return np.eye(3), False
    x0, x1, x2 = (x / nx).tolist()
    return np.array((x0, z1 * x2 - z2 * x1, z0,
                     x1, z2 * x0 - z0 * x2, z1,
                     x2, z0 * x1 - z1 * x0, z2)).reshape(3, 3), True


def J_p(meas: CableMeasurements, contact_endcap, cfg: ShapeSolverConfig,
        prior: RobotShape | None = None):
    """Jacobian of h_p w.r.t. the nine cable lengths.

    Central finite differences with step cfg.fd_step; each perturbed
    solve is warm-started from the nominal solution.  Columns follow
    CABLE_PAIRS order.  One sweep of 19 solves serves every endcap: an
    int id gives the 3x9 Jacobian of that endcap, a sequence of ids
    gives the stacked (len(ids), 3, 9) array.
    """
    single = not isinstance(contact_endcap, (list, tuple, range, np.ndarray))
    ids = [contact_endcap] if single else list(contact_endcap)
    for e in ids:
        _check_endcap_id(e)
    nominal = reconstruct_shape(meas, prior, cfg)
    vec = meas.as_vector()
    J = np.zeros((6, 3, 9))
    for k in range(9):
        ends = []
        for sgn in (+1.0, -1.0):
            pert = vec.copy()
            pert[k] += sgn * cfg.fd_step
            try:
                s = reconstruct_shape(
                    CableMeasurements.from_vector(meas.timestamp, pert), nominal, cfg)
            except ShapeError as e:
                raise JacobianUnavailable(
                    f"perturbed solve failed for cable {CABLE_PAIRS[k]}: {e}") from e
            ends.append(s.q)
        J[:, :, k] = (ends[0] - ends[1]) / (2.0 * cfg.fd_step)
    return J[contact_endcap] if single else J[ids]
