"""The shape solver against a plain reference formulation, bit for bit.

The reference below is the solver as it stood before its hot path was
made lean: five separate coefficient matmuls per inequality evaluation,
every constraint term of every iterate computed from scratch (the start
iterate of a warm solve included), separate cable, rod and inequality
Jacobians stacked on each call, the AL gradient formed again after each
inner loop, and the final feasibility check through the general
constraint margins.  The package's solver must give the same bits on
every output, sign bits included: `q` and `residual` of each solve, the
type and message of each exception and, for a ShapeSolverFailure, its
best shape and report margins, and every `J_p` sweep.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

import tenseg.shape
from tenseg import simulator
from tenseg.shape import (
    CABLE_PAIRS,
    CableMeasurements,
    ConstraintReport,
    J_p,
    JacobianUnavailable,
    MeasurementRejected,
    RobotShape,
    ShapeError,
    ShapeSolverConfig,
    ShapeSolverFailure,
    asymmetric_stance,
    base_rod_endcaps,
    prism_from_parameters,
    reconstruct_shape,
)
from tenseg.shape import (
    _CHI_U,
    _CHI_V,
    _CROSS_IDX,
    _GEO_A,
    _GEO_B,
    _GEO_W,
    _INEQ_NAMES,
    _PAIR_I,
    _PAIR_J,
    _Z_FLAT,
    _Z_GRADS,
    _Z_SIGN,
    _align_gauge,
    _jacobian_slots,
)

CFG = ShapeSolverConfig()

# ---------------------------------------------------------------------------
# reference formulation

_GEO_A2, _GEO_B2, _GEO_W2, _CHI_U2, _CHI_V2 = (
    M[:, 2:, None].copy() for M in (_GEO_A, _GEO_B, _GEO_W, _CHI_U, _CHI_V))


def ref_inequality_values(q):
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


def ref_inequality_grads(cr, uv):
    grads = np.empty((10, 12))
    grads[:4] = _Z_GRADS
    G = grads.reshape(10, 4, 3)
    cr = cr.reshape(3, 3, 1, 3)
    g = G[4:7]
    np.multiply(_GEO_A2, cr[1], out=g)
    g += _GEO_B2 * cr[2]
    g += _GEO_W2 * cr[0]
    uv = uv.reshape(2, 3, 1, 3)
    g = G[7:]
    np.multiply(_CHI_U2, uv[1], out=g)
    g += _CHI_V2 * uv[0]
    return grads


_ROWS_I = np.where(_PAIR_I >= 2)[0]
_ROWS_J = np.where(_PAIR_J >= 2)[0]
_JR_I = _jacobian_slots(_ROWS_I, _PAIR_I[_ROWS_I])
_JR_J = _jacobian_slots(_ROWS_J, _PAIR_J[_ROWS_J])
_ROD_I = np.array([2, 4])
_ROD_J = np.array([3, 5])
_JC_I = _jacobian_slots([0, 1], _ROD_I)
_JC_J = _jacobian_slots([0, 1], _ROD_J)


def ref_cable_residual(q, lengths):
    diff = q.take(_PAIR_I, axis=0)
    diff -= q.take(_PAIR_J, axis=0)
    norms = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return norms - lengths, (diff, norms)


def ref_cable_jacobian(diff, norms):
    unit = diff / norms[:, None]
    Jr = np.zeros(108)
    Jr[_JR_I] = unit.take(_ROWS_I, axis=0).ravel()
    Jr[_JR_J] -= unit.take(_ROWS_J, axis=0).ravel()
    return Jr.reshape(9, 12)


def ref_rod_eq_residual(q, L):
    d = q.take(_ROD_I, axis=0)
    d -= q.take(_ROD_J, axis=0)
    n = np.sqrt([d[0].dot(d[0]), d[1].dot(d[1])])
    return n - L, (d, n)


def ref_rod_eq_jacobian(d, n):
    u = d / n[:, None]
    Jc = np.zeros(24)
    Jc[_JC_I] = u.ravel()
    Jc[_JC_J] = -u.ravel()
    return Jc.reshape(2, 12)


_MARGIN_NAMES = ("fixed_q0", "fixed_q1", "upper_half_plane",
                 "lower_half_plane", "rod_lengths") + _INEQ_NAMES[4:]


def ref_margins(q, cfg):
    vals = ref_inequality_values(q)[0].tolist()
    fixed = np.abs(q[:2] - base_rod_endcaps(cfg)).max(axis=1).tolist()
    rod_err = max(abs(math.sqrt(d.dot(d)) - cfg.L_rod)
                  for d in q[0::2] - q[1::2])
    return (cfg.rod_tol - fixed[0], cfg.rod_tol - fixed[1],
            min(vals[0], vals[1]), min(vals[2], vals[3]),
            cfg.rod_tol - rod_err, *vals[4:])


def ref_check_constraints(shape, cfg):
    margins = dict(zip(_MARGIN_NAMES, ref_margins(shape.q, cfg)))
    return ConstraintReport(margins=margins, passed=all(v >= 0 for v in margins.values()))


def ref_canonical_prism(cfg, radius_frac=0.35, twist=5.0 * np.pi / 6.0):
    radius = radius_frac * cfg.L_rod
    for tw in (twist, -twist):
        q = prism_from_parameters(cfg, radius, tw)
        if all(v >= 0 for v in ref_margins(q, cfg)):
            return q
    raise ShapeSolverFailure("no chirality-feasible canonical prism found")


REF_TRIANGLES = (((0, 2), (2, 4), (0, 4)), ((1, 3), (3, 5), (1, 5)))


def ref_check_triangles(lengths_by_pair, tol):
    for tri in REF_TRIANGLES:
        ls = [lengths_by_pair[p] for p in tri]
        for k in range(3):
            if ls[k] > ls[(k + 1) % 3] + ls[(k + 2) % 3] + tol:
                raise MeasurementRejected(
                    f"cable triple {tri} violates the triangle inequality: {ls}"
                )


_SQRT2 = np.sqrt(2.0)
_EYE12 = np.eye(12)


class RefIterate:
    def __init__(self, x, q_fixed, lengths, cfg):
        q = q_fixed.copy()
        q[2:] = x.reshape(4, 3)
        self.x = x
        self.r, self._cable = ref_cable_residual(q, lengths)
        self.c, self._rod = ref_rod_eq_residual(q, cfg.L_rod)
        g, self._ineq = ref_inequality_values(q)
        self.gt = g - cfg.inequality_margin
        self._jacobians = None
        self._kkt = None

    def jacobians(self):
        if self._jacobians is None:
            self._jacobians = (ref_cable_jacobian(*self._cable),
                               ref_rod_eq_jacobian(*self._rod),
                               ref_inequality_grads(*self._ineq))
        return self._jacobians

    def kkt_residual(self):
        if self._kkt is None:
            Jr, Jc, Jg = self.jacobians()
            g_obj = 2.0 * (Jr.T @ self.r)
            A = np.vstack([Jc, Jg[self.gt <= 1e-6]])
            lam, *_ = np.linalg.lstsq(A.T, g_obj, rcond=None)
            kkt = float(np.max(np.abs(g_obj - A.T @ lam)))
            viol = float(max(np.max(np.abs(self.c)), max(0.0, -np.min(self.gt))))
            self._kkt = kkt, viol
        return self._kkt


def ref_al_residual(it, lam_eq, lam_in, mu):
    slack = lam_in - mu * it.gt
    act = slack > 0.0
    sqrt_mu = np.sqrt(mu)
    rho = np.zeros(21)
    np.multiply(_SQRT2, it.r, out=rho[:9])
    np.multiply(sqrt_mu, it.c + lam_eq / mu, out=rho[9:11])
    np.divide(slack, sqrt_mu, out=rho[11:], where=act)
    return rho, act


def ref_al_jacobian(it, act, mu):
    Jr, Jc, Jg = it.jacobians()
    sqrt_mu = np.sqrt(mu)
    Jrho = np.zeros((21, 12))
    np.multiply(_SQRT2, Jr, out=Jrho[:9])
    np.multiply(sqrt_mu, Jc, out=Jrho[9:11])
    np.multiply(-sqrt_mu, Jg, out=Jrho[11:], where=act[:, None])
    return Jrho


def ref_gauss_newton_inner(it, q_fixed, lengths, cfg, lam_eq, lam_in, mu, gtol):
    rho, act = ref_al_residual(it, lam_eq, lam_in, mu)
    Jrho = ref_al_jacobian(it, act, mu)
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
            trial = RefIterate(it.x + step, q_fixed, lengths, cfg)
            rho_new, act = ref_al_residual(trial, lam_eq, lam_in, mu)
            cost_new = 0.5 * rho_new @ rho_new
            if cost_new < cost:
                it, rho, cost = trial, rho_new, cost_new
                Jrho = ref_al_jacobian(it, act, mu)
                nu = max(nu * 0.25, 1e-12)
                accepted = True
                break
            nu *= 4.0
        if not accepted:
            break
    return it, rho, Jrho


def ref_reconstruct_once(meas, prior, cfg):
    lengths_by_pair = dict(zip(CABLE_PAIRS, meas.lengths.tolist()))
    for p, l in lengths_by_pair.items():
        if not (0.0 < l < 2.0 * cfg.L_rod):
            raise MeasurementRejected(f"cable {p} length {l} outside (0, 2*L_rod)")
    ref_check_triangles(lengths_by_pair, cfg.triangle_tol)
    lengths = np.array([lengths_by_pair[p] for p in CABLE_PAIRS])

    q0, q1 = base_rod_endcaps(cfg)
    q_fixed = np.zeros((6, 3))
    q_fixed[0], q_fixed[1] = q0, q1
    if prior is not None:
        x = prior.q[2:].ravel().copy()
    else:
        x = ref_canonical_prism(cfg)[2:].ravel()
    x_start = x.copy()
    it = RefIterate(x, q_fixed, lengths, cfg)

    lam_eq = np.zeros(2)
    lam_in = np.zeros(10)
    mu = cfg.mu_init
    omega = 1e-2
    converged = False
    prev_grad = np.inf
    for _ in range(cfg.max_iterations):
        it, rho, Jrho = ref_gauss_newton_inner(
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
                mu = min(mu * cfg.mu_factor, cfg.mu_max)
        else:
            mu = min(mu * cfg.mu_factor, cfg.mu_max)
            omega = max(cfg.convergence_tol, 1e-2 / mu)
        prev_grad = grad

    q = q_fixed.copy()
    q[2:] = _align_gauge(it.x.reshape(4, 3), x_start.reshape(4, 3))
    r, _ = ref_cable_residual(q, lengths)
    shape = RobotShape(meas.timestamp, q, residual=float(r @ r))
    if not (converged and all(v >= 0 for v in ref_margins(q, cfg))):
        report = ref_check_constraints(shape, cfg)
        raise ShapeSolverFailure(
            f"shape solve did not converge (converged={converged}, "
            f"failing constraints: {report.failing()})",
            best_shape=shape, report=report)
    return shape


def ref_reconstruct_shape(meas, prior, cfg):
    try:
        return ref_reconstruct_once(meas, prior, cfg)
    except ShapeSolverFailure:
        if prior is None:
            raise
        return ref_reconstruct_once(meas, None, cfg)


def ref_J_p(meas, ids, cfg, prior=None):
    nominal = ref_reconstruct_shape(meas, prior, cfg)
    vec = meas.lengths
    J = np.zeros((6, 3, 9))
    for k in range(9):
        ends = []
        for sgn in (+1.0, -1.0):
            pert = vec.copy()
            pert[k] += sgn * cfg.fd_step
            try:
                s = ref_reconstruct_shape(
                    CableMeasurements(meas.timestamp, pert), nominal, cfg)
            except ShapeError as e:
                raise JacobianUnavailable(
                    f"perturbed solve failed for cable {CABLE_PAIRS[k]}: {e}") from e
            ends.append(s.q)
        J[:, :, k] = (ends[0] - ends[1]) / (2.0 * cfg.fd_step)
    return J[list(ids)]


# ---------------------------------------------------------------------------
# comparison


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_shape(ours, ref):
    assert type(ours) is RobotShape
    assert ours.timestamp == ref.timestamp
    assert same_bits(ours.q, ref.q)
    assert same_bits(ours.residual, ref.residual)


def assert_same_outcome(ours, ref):
    """ours and ref are each a RobotShape or the exception a solve raised."""
    if isinstance(ref, Exception):
        assert type(ours) is type(ref), (ours, ref)
        assert str(ours) == str(ref)
        if isinstance(ref, ShapeSolverFailure):
            assert_same_shape(ours.best_shape, ref.best_shape)
            assert list(ours.report.margins) == list(ref.report.margins)
            assert same_bits(list(ours.report.margins.values()),
                             list(ref.report.margins.values()))
            assert ours.report.passed == ref.report.passed
    else:
        assert_same_shape(ours, ref)


def outcome(solve, *args):
    try:
        return solve(*args)
    except ShapeError as err:
        return err


def compare_chain(frames, cfg=CFG):
    """Solve frames in order on both sides, each warm from its own last
    shape as the filter does: a failure keeps the shape, except that a
    side with none adopts the failure's best shape."""
    ours = ref = None
    counts = {"exact": 0, "lsq": 0, "failed": 0}
    for meas in frames:
        a = outcome(reconstruct_shape, meas, ours, cfg)
        b = outcome(ref_reconstruct_shape, meas, ref, cfg)
        assert_same_outcome(a, b)
        if isinstance(b, Exception):
            counts["failed"] += 1
            if isinstance(b, ShapeSolverFailure) and ref is None:
                ours, ref = a.best_shape, b.best_shape
        else:
            counts["exact" if b.residual <= 1e-12 else "lsq"] += 1
            ours, ref = a, b
    return counts


# the benchmark workloads' simulator settings (perfbench/workloads.py)
WORKLOAD_SIMS = {
    "turn_imu1k": simulator.SimConfig(
        maneuver="right_turn", target_length=1.2, dwell=1.6, final_dwell=0.2,
        imu_rate=1000.0),
    "jacobian_fk": simulator.SimConfig(
        maneuver="forward", target_length=1.0, dwell=1.2, final_dwell=0.0,
        pivot_duration=0.75, cable_rate=20.0),
}


def workload_frames(name, cable_noise, seed=5):
    sim = simulator.generate(WORKLOAD_SIMS[name])
    return simulator.corrupt(sim, seed=seed, cable_noise=cable_noise).cables


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("cable_noise", [0.0, 0.002, 0.005])
@pytest.mark.parametrize("workload", ["turn_imu1k", "jacobian_fk"])
def test_warm_chain_equals_reference_bitwise(workload, cable_noise):
    frames = workload_frames(workload, cable_noise)
    if workload == "turn_imu1k" and cable_noise:
        frames = frames[:160]
    counts = compare_chain(frames)
    if cable_noise:
        # noisy frames include both exact fits and least-squares fits
        assert counts["exact"] > 0 and counts["lsq"] > 0, counts
    else:
        assert counts["exact"] == len(frames), counts


@pytest.mark.parametrize("inner_iterations", [1, 2, 3])
def test_short_inner_loops_equal_reference_bitwise(inner_iterations):
    # inner loops that end on their iteration cap after an accepted step,
    # so the AL gradient must be formed again at the new iterate
    cfg = replace(CFG, inner_iterations=inner_iterations)
    counts = compare_chain(workload_frames("jacobian_fk", 0.005)[::2], cfg)
    assert counts["exact"] > 0, counts


def test_cold_solves_equal_reference_bitwise():
    rng = np.random.default_rng(17)
    frames = workload_frames("jacobian_fk", 0.005)[::4]
    for meas in frames:
        assert_same_outcome(outcome(reconstruct_shape, meas, None, CFG),
                            outcome(ref_reconstruct_shape, meas, None, CFG))
    # random feasible shapes, exact and noisy
    base = asymmetric_stance(CFG)
    for k in range(12):
        q = base.copy()
        q[2:] += rng.normal(scale=0.04, size=(4, 3))
        vec = RobotShape(0.0, q).cable_lengths() + rng.normal(scale=0.003 * (k % 2), size=9)
        meas = CableMeasurements(0.1 * k, vec)
        assert_same_outcome(outcome(reconstruct_shape, meas, None, CFG),
                            outcome(ref_reconstruct_shape, meas, None, CFG))


def _mirrored(shape):
    q = shape.q.copy()
    q[:, 1] *= -1.0
    return RobotShape(shape.timestamp, q)


def test_warm_failure_falls_back_to_cold_retry_as_reference(monkeypatch):
    # With three outer passes, a solve warm-started from the mirror image
    # stalls short of the feasible branch and is retried from the
    # canonical prism, which mostly succeeds.
    cfg = replace(CFG, max_iterations=3)
    calls = []
    once = tenseg.shape._reconstruct_once
    monkeypatch.setattr(tenseg.shape, "_reconstruct_once",
                        lambda meas, prior, cfg: calls.append(prior) or once(meas, prior, cfg))
    frames = workload_frames("jacobian_fk", 0.002)[::5]
    retried = solved_cold = 0
    for meas in frames:
        prior = _mirrored(reconstruct_shape(meas, None, CFG))
        calls.clear()
        a = outcome(reconstruct_shape, meas, prior, cfg)
        assert_same_outcome(a, outcome(ref_reconstruct_shape, meas, prior, cfg))
        if calls == [prior, None]:
            retried += 1
            solved_cold += isinstance(a, RobotShape)
            # the warm attempt's best shape, a solver-made failure, as a warm start
            with pytest.raises(ShapeSolverFailure) as ours:
                once(meas, prior, cfg)
            with pytest.raises(ShapeSolverFailure) as ref:
                ref_reconstruct_once(meas, prior, cfg)
            assert_same_outcome(ours.value, ref.value)
            assert_same_outcome(
                outcome(reconstruct_shape, meas, ours.value.best_shape, CFG),
                outcome(ref_reconstruct_shape, meas, ref.value.best_shape, CFG))
    assert retried >= 8 and solved_cold >= 5


def test_failures_and_rejections_equal_reference():
    # scaled lengths: rejected by the range or triangle checks, or solved
    # to a least-squares fit; with three outer passes, some fail
    rng = np.random.default_rng(3)
    counts = {RobotShape: 0, ShapeSolverFailure: 0, MeasurementRejected: 0}
    lengths = RobotShape(0.0, asymmetric_stance(CFG)).cable_lengths()
    stance = RobotShape(0.0, asymmetric_stance(CFG))
    for k in range(20):
        vec = lengths * rng.uniform(0.7, 1.4, size=9)
        if k % 5 == 0:
            vec[k % 9] = (0.0, -0.1, 3.0, np.nan)[k // 5]
        meas = CableMeasurements(float(k), vec)
        for prior in (None, stance):
            for cfg in (CFG, replace(CFG, max_iterations=3)):
                a = outcome(reconstruct_shape, meas, prior, cfg)
                b = outcome(ref_reconstruct_shape, meas, prior, cfg)
                assert_same_outcome(a, b)
                counts[type(b)] += 1
    assert min(counts.values()) >= 5, counts


def test_triangle_rejections_equal_reference():
    # each side cable in turn stretched past the other two of its triangle,
    # and by less than triangle_tol, which passes
    lengths = RobotShape(0.0, asymmetric_stance(CFG)).cable_lengths()
    rejected = 0
    for k in range(6):
        for excess in (0.1, 0.5 * CFG.triangle_tol):
            vec = lengths.copy()
            others = [m for m in REF_TRIANGLES[k // 3] if m != CABLE_PAIRS[k]]
            vec[k] = sum(lengths[CABLE_PAIRS.index(p)] for p in others) + excess
            meas = CableMeasurements(0.0, vec)
            a = outcome(reconstruct_shape, meas, None, CFG)
            assert_same_outcome(a, outcome(ref_reconstruct_shape, meas, None, CFG))
            rejected += isinstance(a, MeasurementRejected)
    assert rejected == 6


@pytest.mark.parametrize("cable_noise", [0.0, 0.002])
def test_J_p_sweeps_equal_reference_bitwise(cable_noise):
    frames = workload_frames("jacobian_fk", cable_noise)[10::9]
    ours = ref = None
    for meas in frames:
        ours = reconstruct_shape(meas, ours, CFG)
        ref = ref_reconstruct_shape(meas, ref, CFG)
        for prior_ours, prior_ref in ((ours, ref), (None, None)):
            a = outcome(J_p, meas, range(6), CFG, prior_ours)
            b = outcome(ref_J_p, meas, range(6), CFG, prior_ref)
            if isinstance(b, Exception):
                assert type(a) is type(b) and str(a) == str(b)
            else:
                assert same_bits(a, b)


# ---------------------------------------------------------------------------
# carried terms


def test_carried_terms_equal_plain_warm_start_bitwise():
    frames = workload_frames("jacobian_fk", 0.005)
    prior = None
    for meas in frames:
        solved = outcome(reconstruct_shape, meas, prior, CFG)
        if isinstance(solved, Exception):
            continue
        if prior is not None:
            plain = RobotShape(prior.timestamp, prior.q.copy(), prior.residual)
            assert plain._terms is None and prior._terms is not None
            assert_same_outcome(outcome(reconstruct_shape, meas, plain, CFG), solved)
        prior = solved


@pytest.mark.parametrize("change", [dict(L_rod=1.4), dict(inequality_margin=2e-4)])
def test_other_config_never_uses_carried_terms(monkeypatch, change):
    other = replace(CFG, **change)
    frames = workload_frames("jacobian_fk", 0.002)
    made = reconstruct_shape(frames[20], None, CFG)
    scaled = RobotShape(made.timestamp, made.q * (other.L_rod / CFG.L_rod))
    solved_other = reconstruct_shape(frames[20], scaled, other)
    starts = []
    init = tenseg.shape._Iterate.__init__
    monkeypatch.setattr(tenseg.shape._Iterate, "__init__",
                        lambda self, x, terms, lengths: starts.append(terms) or
                        init(self, x, terms, lengths))
    meas = frames[21]
    for prior, cfg in ((made, other), (solved_other, CFG)):
        starts.clear()
        a = outcome(reconstruct_shape, meas, prior, cfg)
        plain = RobotShape(prior.timestamp, prior.q.copy(), prior.residual)
        assert starts[0] is not prior._terms
        assert_same_outcome(a, outcome(reconstruct_shape, meas, plain, cfg))
        assert_same_outcome(a, outcome(ref_reconstruct_shape, meas, plain, cfg))
    # and with the same config they are used
    starts.clear()
    reconstruct_shape(meas, made, CFG)
    assert starts[0] is made._terms


def test_robot_shape_equality_and_repr_unchanged():
    meas = workload_frames("jacobian_fk", 0.0)[5]
    made = reconstruct_shape(meas, None, CFG)
    plain = RobotShape(made.timestamp, made.q.copy(), made.residual)
    assert made._terms is not None
    assert repr(made) == repr(plain)
    assert "_terms" not in repr(made)
    assert [f.name for f in fields(RobotShape)] == ["timestamp", "q", "residual"]
    assert not made.q.flags.writeable
    assert replace(made, timestamp=1.0)._terms is None
    with pytest.raises(ValueError, match="ambiguous"):
        made == plain           # as for any pair of shapes: q is an array
    assert made.__eq__(object()) is NotImplemented


def test_failure_best_shape_is_a_valid_warm_start():
    meas = workload_frames("jacobian_fk", 0.002)[30]
    prior = _mirrored(reconstruct_shape(meas, None, CFG))
    with pytest.raises(ShapeSolverFailure) as info:
        reconstruct_shape(meas, prior, replace(CFG, max_iterations=3))
    best = info.value.best_shape
    assert best._terms is not None
    plain = RobotShape(best.timestamp, best.q.copy(), best.residual)
    a = outcome(reconstruct_shape, meas, best, CFG)
    assert isinstance(a, RobotShape)
    assert_same_outcome(a, outcome(reconstruct_shape, meas, plain, CFG))


def test_filter_adopts_failure_best_shape_and_warm_starts_from_it(monkeypatch):
    from tenseg import inekf
    from tenseg.inekf import ContactAidedFilter, ImuBias, initial_state

    frames = workload_frames("jacobian_fk", 0.002)
    filt = ContactAidedFilter(initial_state(np.eye(3), ImuBias(), 0.0))
    # a cold solve capped at one outer pass stops short of convergence
    monkeypatch.setattr(inekf, "SHAPE_SOLVER", replace(CFG, max_iterations=1))
    with pytest.raises(ShapeSolverFailure) as info:
        reconstruct_shape(frames[3], None, inekf.SHAPE_SOLVER)
    filt.process_cables(frames[3])
    assert filt.solver_failures == 1 and not filt._shape_fresh
    assert_same_shape(filt.shape, info.value.best_shape)
    assert filt.shape._terms is not None
    adopted = filt.shape
    plain = RobotShape(adopted.timestamp, adopted.q.copy(), adopted.residual)
    monkeypatch.setattr(inekf, "SHAPE_SOLVER", CFG)
    filt.process_cables(frames[4])
    assert filt._shape_fresh
    assert_same_shape(filt.shape, reconstruct_shape(frames[4], plain, CFG))
    assert_same_shape(filt.shape, ref_reconstruct_shape(frames[4], plain, CFG))
