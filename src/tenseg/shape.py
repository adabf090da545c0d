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

# Side-cable triangles, as CABLE_PAIRS indices, for the measurement check.
_TRIANGLES = ((1, 2, 0), (4, 5, 3))

# Gravity in the world frame (z up), shared by the simulator and the filter.
GRAVITY_MAG = 9.81
GRAVITY = np.array([0.0, 0.0, -GRAVITY_MAG])
GRAVITY.flags.writeable = False


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


@dataclass(frozen=True, slots=True)
class CableMeasurements:
    """Nine measured cable lengths [m], a read-only (9,) array in CABLE_PAIRS
    order; slotted, as a log holds thousands."""

    timestamp: float
    lengths: np.ndarray

    def __post_init__(self):
        lengths = np.array(self.lengths, dtype=float)
        if lengths.shape != (9,):
            raise ValueError(f"cable lengths must be a (9,) vector, got shape {lengths.shape}")
        lengths.flags.writeable = False
        object.__setattr__(self, "lengths", lengths)

    # as_vector and from_vector are kept only because perfbench/checks.py calls them.
    def as_vector(self):
        return self.lengths

    @classmethod
    def from_vector(cls, timestamp, vec):
        return cls(timestamp, vec)


@dataclass(frozen=True)
class RobotShape:
    """Six endcap positions q0..q5 in the body frame, plus solve residual."""

    timestamp: float
    q: np.ndarray               # (6, 3)
    residual: float = 0.0       # objective value at the solution [m^2]

    # A shape made by the solver keeps the _Terms of its endcaps, for the
    # next solve warm-started from it; they take no part in ==, repr or
    # dataclasses.replace.
    _terms = None

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        if q.shape != (6, 3):
            raise ValueError("q must be (6, 3)")
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    @classmethod
    def _solved(cls, timestamp, q, residual, terms):
        """Shape the solver made from its fresh (6, 3) float endcaps q, which
        become read-only, and the _Terms computed at them."""
        q.flags.writeable = False
        shape = object.__new__(cls)
        object.__setattr__(shape, "timestamp", timestamp)
        object.__setattr__(shape, "q", q)
        object.__setattr__(shape, "residual", residual)
        object.__setattr__(shape, "_terms", terms)
        return shape

    def cable_lengths(self):
        """Pairwise distances over the cable set, ordered like CABLE_PAIRS."""
        return np.linalg.norm(self.q[_PAIR_I] - self.q[_PAIR_J], axis=1)


@dataclass(frozen=True)
class ShapeSolverConfig:
    L_rod: float = 1.45
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
        for name in ("L_rod", "rod_tol", "inequality_margin"):
            if not 0.0 < (v := getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        # Derived once per config: the endcaps with q0, q1 pinned, as every
        # iterate holds them, and the base rod's length error there.
        q = np.zeros((6, 3))
        q[0], q[1] = base_rod_endcaps(self)
        q.flags.writeable = False
        d = q[0] - q[1]
        object.__setattr__(self, "_q_fixed", q)
        object.__setattr__(self, "_base_rod_err", abs(math.sqrt(d.dot(d)) - self.L_rod))
        # the fields the constraint terms at given endcaps depend on
        object.__setattr__(self, "_terms_key", (self.L_rod, self.inequality_margin))


def base_rod_endcaps(cfg: ShapeSolverConfig):
    """Pinned body-frame coordinates of q0 and q1."""
    half = cfg.L_rod / 2.0
    q0 = np.array([0.0, 0.0, half])
    q1 = np.array([0.0, 0.0, -half])
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

    # Rigid transform: base rod axis to +z, rod midpoint to the origin.
    R = rotation_to_z((q[0] - q[1]) / L)
    mid = (q[0] + q[1]) / 2.0
    return (q - mid) @ R.T


def canonical_prism(cfg: ShapeSolverConfig):
    """Feasible symmetric prism used as the cold-start iterate.

    Its twist is -5 pi / 6: the prism scales with L_rod, and at +5 pi / 6
    it fails the chirality constraints at every rod length.
    """
    return prism_from_parameters(cfg, 0.35 * cfg.L_rod, -(5.0 * np.pi / 6.0))


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
# reference in tests/test_shape.py, and the solver built on them makes
# the number-producing calls of the plain solver kept as the reference
# in tests/test_shape_reference.py, so every solve is bit-identical to
# it.  Everything the kernels compute depends on the endcaps alone (and
# on L_rod and inequality_margin), not on the cable lengths: see _Terms.

# Rows of the affine vectors a, b, w (rod non-crossing) and u, v
# (chirality), stacked so that one matmul forms all fifteen.
_COEF = np.vstack([_GEO_A, _GEO_B, _GEO_W, _CHI_U, _CHI_V])

# Coefficients of the free endcaps q2..q5, shaped to broadcast against
# one 3-vector per constraint row.  The six gradient rows (non-crossing,
# then chirality) are c1 * l1 + c2 * l2, plus w's term on the first three.
_GRAD_C1 = np.concatenate([_GEO_A, _CHI_U])[:, 2:, None].copy()
_GRAD_C2 = np.concatenate([_GEO_B, _CHI_V])[:, 2:, None].copy()
_GRAD_W = _GEO_W[:, 2:, None].copy()


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
    abw = _COEF @ q                   # a, b, w, u, v
    t = abw.take(_CROSS_IDX)
    cr = t[0] * t[1]
    cr -= t[2] * t[3]                 # a x b, b x w, w x a
    np.einsum("ij,ij->i", cr[:3], abw[6:9], out=vals[4:7])
    np.einsum("ij,ij->i", abw[9:12], abw[12:], out=vals[7:])
    return vals, (cr, abw[9:])


def _inequality_grads(cr, uv, out):
    """Gradients (10, 12) of the inequalities w.r.t. the free variables, into out."""
    out[:4] = _Z_GRADS
    g = out[4:].reshape(6, 4, 3)
    # non-crossing: A * (b x w) + B * (w x a) + W * (a x b); chirality: U * v + V * u
    np.multiply(_GRAD_C1, np.concatenate([cr[3:6], uv[3:]])[:, None], out=g)
    g += _GRAD_C2 * np.concatenate([cr[6:], uv[:3]])[:, None]
    g[:3] += _GRAD_W * cr[:3, None]
    return out


_INEQ_NAMES = ("upper_z_q2", "upper_z_q4", "lower_z_q3", "lower_z_q5",
               "no_cross_r23", "no_cross_r45", "no_cross_r01",
               "chirality_024", "chirality_120", "chirality_240")


def _jacobian_slots(rows, ends):
    """Flat indices of the (row, free endcap) 3-blocks of an (n, 12) Jacobian."""
    return (12 * np.asarray(rows)[:, None] + 3 * (np.asarray(ends)[:, None] - 2)
            + np.arange(3)).ravel()


# The 11 endcap differences: the 9 cables, then the free rods r23, r45.
_ROD_I = np.array([2, 4])
_ROD_J = np.array([3, 5])
_DIFF_I = np.concatenate([_PAIR_I, _ROD_I])
_DIFF_J = np.concatenate([_PAIR_J, _ROD_J])

# Jacobian rows (cables 0-8, rods 9-10) and slots of their +u blocks, of
# the cables' -u blocks and of the rods' -u blocks.
_PLUS_ROWS = np.where(_DIFF_I >= 2)[0]
_J_PLUS = _jacobian_slots(_PLUS_ROWS, _DIFF_I[_PLUS_ROWS])
_CABLE_MINUS_ROWS = np.where(_PAIR_J >= 2)[0]
_J_CABLE_MINUS = _jacobian_slots(_CABLE_MINUS_ROWS, _PAIR_J[_CABLE_MINUS_ROWS])
_J_ROD_MINUS = _jacobian_slots([9, 10], _ROD_J)


def _differences(q):
    """The 11 endcap differences and their norms, cables first.

    Cable norms go through einsum and rod norms row by row through
    ndarray.dot, as np.linalg.norm does.
    """
    d = q.take(_DIFF_I, axis=0)
    d -= q.take(_DIFF_J, axis=0)
    sq = np.empty(11)
    np.einsum("ij,ij->i", d[:9], d[:9], out=sq[:9])
    sq[9] = d[9].dot(d[9])
    sq[10] = d[10].dot(d[10])
    return d, np.sqrt(sq)


def _equality_jacobian(d, norms, out):
    """Jacobian (11, 12) of the cable and rod lengths w.r.t. the free variables, into out.

    out must hold zeros.
    """
    unit = d / norms[:, None]
    flat = out.reshape(-1)
    flat[_J_PLUS] = unit.take(_PLUS_ROWS, axis=0).ravel()
    # Cable rows subtract from zero rather than negate, so zeros keep
    # their sign; rod rows negate.
    flat[_J_CABLE_MINUS] = np.subtract(0.0, unit.take(_CABLE_MINUS_ROWS, axis=0).ravel())
    flat[_J_ROD_MINUS] = -unit[9:].ravel()
    return out


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


def _margin_values(fixed, rod_errs, vals, cfg):
    """The 11 margins, in _MARGIN_NAMES order, from the pinned endcaps'
    coordinate errors, the three rod-length errors and the inequality values."""
    return (cfg.rod_tol - fixed[0], cfg.rod_tol - fixed[1],
            min(vals[0], vals[1]), min(vals[2], vals[3]),
            cfg.rod_tol - max(rod_errs), *vals[4:])


def _margins(q, cfg: ShapeSolverConfig):
    """The 11 constraint margins of endcaps q, in _MARGIN_NAMES order."""
    return _margin_values(
        np.abs(q[:2] - base_rod_endcaps(cfg)).max(axis=1).tolist(),
        [abs(math.sqrt(d.dot(d)) - cfg.L_rod) for d in q[0::2] - q[1::2]],
        _inequality_values(q)[0].tolist(), cfg)


def check_constraints(shape: RobotShape, cfg: ShapeSolverConfig) -> ConstraintReport:
    margins = dict(zip(_MARGIN_NAMES, _margins(shape.q, cfg)))
    return ConstraintReport(margins=margins, passed=all(v >= 0 for v in margins.values()))


# ---------------------------------------------------------------------------
# Solver


def _check_triangles(ls, tol):
    for tri in _TRIANGLES:
        a, b, c = t = [ls[k] for k in tri]
        if a > b + c + tol or b > c + a + tol or c > a + b + tol:
            raise MeasurementRejected(f"cable triple {tuple(CABLE_PAIRS[k] for k in tri)} "
                                      f"violates the triangle inequality: {t}")


_SQRT2 = np.sqrt(2.0)
_EYE12 = np.eye(12)


class _Terms:
    """Constraint terms at endcaps q that do not depend on the cable lengths.

    They depend on q, L_rod and inequality_margin alone; the last two
    are their key.  Every iterate has one set; a solver-made RobotShape
    keeps the set of its own endcaps, so a solve warm-started from it
    under a config with the same key starts from them instead of
    computing them again.  The
    Jacobian (21, 12) of [cable lengths; rod lengths; inequalities] and
    the worst violation are computed on first use: a rejected trial step
    needs neither.
    """

    __slots__ = ("key", "d", "norms", "c", "g", "ineq", "gt", "_J", "_A", "_viol")

    def __init__(self, q, cfg):
        self.key = cfg._terms_key
        self.d, self.norms = _differences(q)
        self.c = self.norms[9:] - cfg.L_rod
        self.g, self.ineq = _inequality_values(q)
        self.gt = self.g - cfg.inequality_margin
        self._J = None
        self._A = None
        self._viol = None

    def jacobian(self):
        if self._J is None:
            J = np.zeros((21, 12))
            _equality_jacobian(self.d, self.norms, J[:11])
            _inequality_grads(*self.ineq, J[11:])
            self._J = J
        return self._J

    def kkt_rows(self):
        """Jacobian rows of the rod equalities and near-active inequalities."""
        if self._A is None:
            J = self.jacobian()
            near = self.gt <= 1e-6
            self._A = np.vstack([J[9:11], J[11:][near]]) if near.any() else J[9:11]
        return self._A

    def violation(self):
        """Worst rod-length or inequality violation."""
        if self._viol is None:
            self._viol = max(abs(self.c).max(), max(0.0, -self.gt.min()))
        return self._viol

    def passes(self, cfg):
        """check_constraints(...).passed of the solver-made endcaps these
        terms are of, without building the report.

        Their pinned endcaps are copies of cfg's, so those coordinates
        are exact and the base rod's length error is cfg's own.
        """
        c0, c1 = self.c.tolist()
        return all(v >= 0 for v in _margin_values(
            (0.0, 0.0), (cfg._base_rod_err, abs(c0), abs(c1)), self.g.tolist(), cfg))


class _Iterate:
    """One iterate x of the free variables: its terms and cable residuals.

    The KKT residual is computed on first use.  An iterate carried into
    the next outer pass is not evaluated again.
    """

    __slots__ = ("x", "terms", "r", "_kkt")

    def __init__(self, x, terms, lengths):
        self.x = x
        self.terms = terms
        self.r = terms.norms[:9] - lengths
        self._kkt = None

    @classmethod
    def at(cls, x, lengths, cfg):
        q = cfg._q_fixed.copy()
        q[2:] = x.reshape(4, 3)
        return cls(x, _Terms(q, cfg), lengths)

    def kkt_residual(self):
        """First-order optimality residual, independent of the penalty weight.

        Fits multipliers for the rod equalities (and any near-active
        inequalities) by least squares and returns the norm of the cable
        gradient left unexplained by them.  Unlike the
        augmented-Lagrangian gradient, this does not inherit the
        mu * machine-epsilon noise floor, so it stays meaningful at
        large penalty weights.
        """
        if self._kkt is None:
            g_obj = 2.0 * (self.terms.jacobian()[:9].T @ self.r)
            A = self.terms.kkt_rows()
            lam, *_ = np.linalg.lstsq(A.T, g_obj, rcond=None)
            self._kkt = abs(g_obj - A.T @ lam).max()
        return self._kkt


class _Weights:
    """Multipliers and penalty weight of one outer pass, and the factors
    the AL residual and Jacobian take from them.  The factors of mu alone
    are taken from the previous pass's weights when mu is unchanged."""

    __slots__ = ("lam_in", "mu", "sqrt_mu", "shift", "scale")

    def __init__(self, lam_eq, lam_in, mu, prev=None):
        self.lam_in, self.mu = lam_in, mu
        if prev is not None and prev.mu == mu:
            self.sqrt_mu, self.scale = prev.sqrt_mu, prev.scale
        else:
            self.sqrt_mu = np.sqrt(mu)
            # Row factors of the AL Jacobian's cable and rod-equality rows.
            self.scale = np.full((11, 1), self.sqrt_mu)
            self.scale[:9] = _SQRT2
        self.shift = lam_eq / mu


def _al_residual(it, w):
    """Stacked augmented-Lagrangian residual vector at it, with the
    active set (None when no inequality is active) and the inequality
    slack.

    The AL objective is 0.5*||rho||^2 (up to a constant), covering the
    cable objective, the rod equalities, and the PHR terms for the
    inequalities g >= margin.  The slack, clipped at zero, is the next
    pass's inequality multipliers.
    """
    slack = w.lam_in - w.mu * it.terms.gt
    act = slack > 0.0
    rho = np.zeros(21)
    np.multiply(_SQRT2, it.r, out=rho[:9])
    np.multiply(w.sqrt_mu, it.terms.c + w.shift, out=rho[9:11])
    if not act.any():
        return rho, None, slack
    np.divide(slack, w.sqrt_mu, out=rho[11:], where=act)
    return rho, act, slack


def _al_jacobian(it, act, w):
    """Jacobian of rho at it for the active set act."""
    J = it.terms.jacobian()
    Jrho = np.zeros((21, 12))
    np.multiply(w.scale, J[:11], out=Jrho[:11])
    if act is not None:
        np.multiply(-w.sqrt_mu, J[11:], out=Jrho[11:], where=act[:, None])
    return Jrho


def _gauss_newton_inner(it, lengths, cfg, w, gtol):
    """Damped (Levenberg) Gauss-Newton on the AL subproblem.

    Returns the last accepted iterate, the largest magnitude of the AL
    gradient there and the inequality slack there.
    """
    rho, act, slack = _al_residual(it, w)
    Jrho = _al_jacobian(it, act, w)
    cost = None           # of rho, computed for the first trial step
    nu = 1e-6
    for _ in range(cfg.inner_iterations):
        grad = Jrho.T @ rho
        grad_max = np.abs(grad).max()
        if grad_max <= gtol:
            break
        if cost is None:
            cost = 0.5 * rho @ rho
        H = Jrho.T @ Jrho
        neg_grad = -grad
        accepted = False
        for _ in range(25):
            try:
                step = np.linalg.solve(H + nu * _EYE12, neg_grad)
            except np.linalg.LinAlgError:
                nu *= 10.0
                continue
            trial = _Iterate.at(it.x + step, lengths, cfg)
            rho_new, act, slack_new = _al_residual(trial, w)
            cost_new = 0.5 * rho_new @ rho_new
            if cost_new < cost:
                it, rho, cost, slack = trial, rho_new, cost_new, slack_new
                Jrho = _al_jacobian(it, act, w)
                nu = max(nu * 0.25, 1e-12)
                accepted = True
                break
            nu *= 4.0
        if not accepted:
            break
    else:
        # every pass accepted a step (or none ran): grad is stale
        grad_max = np.abs(Jrho.T @ rho).max()
    return it, grad_max, slack


def _align_gauge(p, ref):
    """Rotate points about the body z-axis to best match the reference.

    Rotations about the base-rod axis preserve all nine cable lengths
    and every constraint, so the optimum is only determined up to this
    one-parameter family; pinning it to the warm start keeps the shape
    continuous across frames.
    """
    px, py, rx, ry = p[:, 0], p[:, 1], ref[:, 0], ref[:, 1]
    A = float(px @ rx + py @ ry)
    B = float(px @ ry - py @ rx)
    if A == 0.0 and B == 0.0:
        return p
    theta = np.arctan2(B, A)
    c, s = np.cos(theta), np.sin(theta)
    out = p.copy()
    out[:, 0] = c * px - s * py
    out[:, 1] = s * px + c * py
    return out


def reconstruct_shape(meas: CableMeasurements, prior: RobotShape | None,
                      cfg: ShapeSolverConfig) -> RobotShape:
    """Solve the constrained shape problem for one cable measurement.

    Warm-starts from the prior shape when given, otherwise from the
    canonical symmetric prism; if a warm-started solve stalls, it is
    retried once from the canonical prism.  Deterministic: identical
    inputs yield bit-identical outputs.  The azimuthal gauge freedom
    about the base rod is pinned to the warm start.

    The shape returned, like the best shape of a ShapeSolverFailure,
    carries the constraint terms of its endcaps: a solve warm-started
    from it under a config of the same L_rod and inequality_margin
    starts from them, with the same bits as from a plain RobotShape of
    those endcaps.

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
    lengths = meas.lengths
    ls = lengths.tolist()     # the checks run on Python floats
    longest = 2.0 * cfg.L_rod
    for p, l in zip(CABLE_PAIRS, ls):
        if not (0.0 < l < longest):
            raise MeasurementRejected(f"cable {p} length {l} outside (0, 2*L_rod)")
    _check_triangles(ls, cfg.triangle_tol)

    if prior is None:
        x = canonical_prism(cfg)[2:].ravel()
        terms = None
    else:
        x = prior.q[2:].ravel()
        terms = prior._terms
    if terms is not None and terms.key == cfg._terms_key:
        it = _Iterate(x, terms, lengths)
    else:
        it = _Iterate.at(x, lengths, cfg)

    lam_eq = np.zeros(2)
    lam_in = np.zeros(10)
    mu = cfg.mu_init
    omega = 1e-2          # inner stationarity tolerance, tightened per outer pass
    converged = False
    prev_grad = np.inf
    w = None
    for _ in range(cfg.max_iterations):
        w = _Weights(lam_eq, lam_in, mu, w)
        it, grad, slack = _gauss_newton_inner(it, lengths, cfg, w, omega)
        kkt = it.kkt_residual()
        feasible = it.terms.violation() <= cfg.rod_tol
        if feasible and kkt <= cfg.convergence_tol:
            converged = True
            break
        lam_eq = lam_eq + mu * it.terms.c
        lam_in = np.maximum(0.0, slack)
        if feasible:
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

    q = cfg._q_fixed.copy()
    q[2:] = _align_gauge(it.x.reshape(4, 3), x.reshape(4, 3))
    terms = _Terms(q, cfg)
    r = terms.norms[:9] - lengths
    shape = RobotShape._solved(meas.timestamp, q, float(r @ r), terms)
    if not (converged and terms.passes(cfg)):
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
    J = np.zeros((6, 3, 9))
    for k in range(9):
        ends = []
        for sgn in (+1.0, -1.0):
            pert = meas.lengths.copy()
            pert[k] += sgn * cfg.fd_step
            try:
                s = reconstruct_shape(
                    CableMeasurements(meas.timestamp, pert), nominal, cfg)
            except ShapeError as e:
                raise JacobianUnavailable(
                    f"perturbed solve failed for cable {CABLE_PAIRS[k]}: {e}") from e
            ends.append(s.q)
        J[:, :, k] = (ends[0] - ends[1]) / (2.0 * cfg.fd_step)
    return J[contact_endcap] if single else J[ids]
