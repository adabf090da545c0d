import numpy as np
import pytest
from dataclasses import replace

from tenseg.shape import (
    CABLE_PAIRS,
    CableMeasurements,
    ConstraintReport,
    J_p,
    MeasurementRejected,
    RobotShape,
    ShapeSolverConfig,
    base_rod_endcaps,
    canonical_prism,
    check_constraints,
    h_R,
    h_p,
    asymmetric_stance,
    prism_from_parameters,
    reconstruct_shape,
)
import tenseg.shape
from tenseg.shape import (
    _CHI_U,
    _CHI_V,
    _GEO_A,
    _GEO_B,
    _GEO_W,
    _PAIR_I,
    _PAIR_J,
    _Z_GRADS,
    _Z_SIGNS,
    _Terms,
    _align_gauge,
)

CFG = ShapeSolverConfig()
RNG = np.random.default_rng(42)


# Each kernel's values and Jacobian w.r.t. q2..q5, as the solver's
# _Terms hold them.

def _cable_residual_grad(q, lengths):
    terms = _Terms(q, CFG)
    return terms.norms[:9] - lengths, terms.jacobian()[:9]


def _rod_eq_residual_grad(q, L):
    terms = _Terms(q, replace(CFG, L_rod=L))
    return terms.c, terms.jacobian()[9:11]


def _inequality_values_grads(q):
    terms = _Terms(q, CFG)
    return terms.g, terms.jacobian()[11:]


def measurement_of(q, t=0.0):
    return CableMeasurements(t, RobotShape(t, q).cable_lengths())


def random_feasible_shape(rng, scale=0.05):
    """Feasible perturbation of the canonical prism with exact rod lengths."""
    base = canonical_prism(CFG)
    while True:
        q = base.copy()
        q[2:] += rng.normal(scale=scale, size=(4, 3))
        for i, j in ((2, 3), (4, 5)):
            m = (q[i] + q[j]) / 2.0
            u = q[i] - q[j]
            u /= np.linalg.norm(u)
            q[i] = m + CFG.L_rod / 2.0 * u
            q[j] = m - CFG.L_rod / 2.0 * u
        if check_constraints(RobotShape(0.0, q), CFG).passed:
            return q


def mirrored(q):
    qm = q.copy()
    qm[:, 1] *= -1.0
    return qm


# ---------------------------------------------------------------------------
# CableMeasurements / RobotShape types


@pytest.mark.parametrize("lengths", [np.ones(8), np.ones(10), np.ones((3, 3)),
                                     1.0, [[1.0] * 9]])
def test_cable_vector_must_have_nine_entries(lengths):
    with pytest.raises(ValueError, match="cable lengths must be a \\(9,\\) vector"):
        CableMeasurements(0.0, lengths)


def test_cable_lengths_are_a_read_only_float_copy():
    src = np.arange(1.0, 10.0)
    meas = CableMeasurements(0.5, src)
    src[0] = 7.0
    assert meas.lengths.tolist() == [float(k) for k in range(1, 10)]
    assert not meas.lengths.flags.writeable
    with pytest.raises(ValueError):
        meas.lengths[0] = 2.0
    # the compatibility spellings: the constructor and the stored array
    alias = CableMeasurements.from_vector(0.5, range(1, 10))
    assert alias.lengths.dtype == np.float64 and alias.as_vector() is alias.lengths
    assert alias.lengths.tolist() == meas.lengths.tolist()


@pytest.mark.parametrize("field", ["L_rod", "rod_tol", "inequality_margin"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_solver_config_refuses_non_positive_or_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        ShapeSolverConfig(**{field: value})


def test_length_out_of_range_rejected():
    vec = np.full(9, 1.0)
    vec[0] = 3.5  # > 2 * L_rod
    with pytest.raises(MeasurementRejected):
        reconstruct_shape(CableMeasurements(0.0, vec), None, CFG)


def test_triangle_violation_rejected():
    q = canonical_prism(CFG)
    vec = RobotShape(0.0, q).cable_lengths()
    # stretch one top side cable far beyond the sum of the other two
    vec[0] = vec[1] + vec[2] + 0.1
    with pytest.raises(MeasurementRejected):
        reconstruct_shape(CableMeasurements(0.0, vec), None, CFG)


# ---------------------------------------------------------------------------
# reconstruct_shape


def test_symmetric_prism_recovery():
    # closed-form twisted prism -> nine distances -> solve recovers it
    q_true = canonical_prism(CFG)
    sol = reconstruct_shape(measurement_of(q_true), None, CFG)
    np.testing.assert_allclose(sol.q, q_true, atol=1e-6)
    assert sol.residual < 1e-12


def test_recovery_from_warm_start_generic_shapes():
    for _ in range(5):
        q_true = random_feasible_shape(RNG)
        sol = reconstruct_shape(measurement_of(q_true), RobotShape(0.0, q_true), CFG)
        np.testing.assert_allclose(sol.q, q_true, atol=1e-6)


def test_cold_solve_reproduces_cable_distances():
    for radius_frac, twist in ((0.30, -2.0), (0.38, -2.8), (0.35, -2.2)):
        q_true = prism_from_parameters(CFG, radius_frac * CFG.L_rod, twist)
        assert check_constraints(RobotShape(0.0, q_true), CFG).passed
        meas = measurement_of(q_true)
        sol = reconstruct_shape(meas, None, CFG)
        np.testing.assert_allclose(sol.cable_lengths(), meas.lengths, atol=1e-6)
        assert check_constraints(sol, CFG).passed


def test_fixed_base_rod_coordinates():
    q0, q1 = base_rod_endcaps(CFG)
    sol = reconstruct_shape(measurement_of(canonical_prism(CFG)), None, CFG)
    np.testing.assert_array_equal(sol.q[0], q0)
    np.testing.assert_array_equal(sol.q[1], q1)


def test_mirror_of_valid_shape_is_infeasible():
    # reflection preserves every dot product and distance, so the mirror is
    # excluded by the triple-product (rod non-crossing) constraints
    for _ in range(10):
        q = random_feasible_shape(RNG)
        rep = check_constraints(RobotShape(0.0, mirrored(q)), CFG)
        assert not rep.passed
        assert any(name.startswith("no_cross") for name in rep.failing())


def test_mirrored_warm_start_never_returns_mirror():
    for _ in range(5):
        q_true = random_feasible_shape(RNG)
        meas = measurement_of(q_true)
        sol = reconstruct_shape(meas, RobotShape(0.0, mirrored(q_true)), CFG)
        rep = check_constraints(sol, CFG)
        assert rep.passed
        mirror_rep = check_constraints(RobotShape(0.0, mirrored(sol.q)), CFG)
        assert not mirror_rep.passed


def test_determinism_bit_identical():
    q_true = random_feasible_shape(np.random.default_rng(0))
    meas = measurement_of(q_true)
    a = reconstruct_shape(meas, None, CFG)
    b = reconstruct_shape(meas, None, CFG)
    assert np.array_equal(a.q, b.q)
    assert a.residual == b.residual


def test_objective_not_worse_than_warm_start():
    rng = np.random.default_rng(5)
    q_true = random_feasible_shape(rng)
    truth_vec = RobotShape(0.0, q_true).cable_lengths()
    prior = reconstruct_shape(measurement_of(q_true), None, CFG)
    for _ in range(10):
        vec = truth_vec + rng.normal(scale=0.01, size=9)
        sol = reconstruct_shape(CableMeasurements(0.0, vec), prior, CFG)
        start_obj = np.sum((prior.cable_lengths() - vec) ** 2)
        assert sol.residual <= start_obj + 1e-12
        prior = sol


def test_noisy_measurements_stay_feasible():
    rng = np.random.default_rng(11)
    truth_vec = RobotShape(0.0, canonical_prism(CFG)).cable_lengths()
    prior = None
    for _ in range(50):
        vec = truth_vec + rng.normal(scale=0.01, size=9)
        sol = reconstruct_shape(CableMeasurements(0.0, vec), prior, CFG)
        assert check_constraints(sol, CFG).passed
        prior = sol


def test_relabel_consistency():
    # the cable set is invariant under the flip relabeling
    # (0<->1, 2<->5, 3<->4); the solution for permuted measurements is the
    # correspondingly relabeled shape brought back onto the pinned base rod
    # by a half-turn about the body x-axis through the rod midpoint.
    sigma = {0: 1, 1: 0, 2: 5, 5: 2, 3: 4, 4: 3}

    def flip(q):
        out = np.empty_like(q)
        for i in range(6):
            x, y, z = q[sigma[i]]
            out[i] = [x, -y, -z]
        return out

    for _ in range(3):
        q_true = random_feasible_shape(RNG)
        sol = reconstruct_shape(measurement_of(q_true), RobotShape(0.0, q_true), CFG)
        q_pred = flip(sol.q)
        assert check_constraints(RobotShape(0.0, q_pred), CFG).passed
        perm_lengths = [np.linalg.norm(q_true[sigma[i]] - q_true[sigma[j]])
                        for (i, j) in CABLE_PAIRS]
        sol_perm = reconstruct_shape(
            CableMeasurements(0.0, perm_lengths), RobotShape(0.0, q_pred), CFG)
        np.testing.assert_allclose(sol_perm.q, q_pred, atol=1e-6)


# ---------------------------------------------------------------------------
# check_constraints


def test_check_constraints_valid_prism():
    # the cold start scales with L_rod; its mirror image (twist +5 pi / 6)
    # fails chirality at every rod length
    for L_rod in (1.0, 1.4, 1.45, 2.0):
        cfg = ShapeSolverConfig(L_rod=L_rod)
        rep = check_constraints(RobotShape(0.0, canonical_prism(cfg)), cfg)
        assert rep.passed
        assert len(rep.margins) == 11
        mirror = prism_from_parameters(cfg, 0.35 * L_rod, 5.0 * np.pi / 6.0)
        assert not check_constraints(RobotShape(0.0, mirror), cfg).passed


def test_check_constraints_rod_length_violation():
    q = canonical_prism(CFG).copy()
    d = q[2] - q[3]
    u = d / np.linalg.norm(d)
    q[2] = q[3] + (CFG.L_rod + 10 * CFG.rod_tol) * u
    rep = check_constraints(RobotShape(0.0, q), CFG)
    assert "rod_lengths" in rep.failing()


# ---------------------------------------------------------------------------
# h_p


def test_h_p_fixed_endcaps():
    sol = reconstruct_shape(measurement_of(canonical_prism(CFG)), None, CFG)
    q0, q1 = base_rod_endcaps(CFG)
    np.testing.assert_array_equal(h_p(sol, 0), q0)
    np.testing.assert_array_equal(h_p(sol, 1), q1)


def test_h_p_matches_generating_coordinates():
    q_true = canonical_prism(CFG)
    sol = reconstruct_shape(measurement_of(q_true), None, CFG)
    np.testing.assert_allclose(h_p(sol, 2), q_true[2], atol=1e-6)


def test_h_p_invalid_id():
    sol = RobotShape(0.0, canonical_prism(CFG))
    with pytest.raises(ValueError):
        h_p(sol, 6)
    with pytest.raises(ValueError):
        h_p(sol, -1)


# ---------------------------------------------------------------------------
# h_R


def test_h_R_gravity_down():
    R, ok = h_R(None, [0.0, 0.0, -9.81])
    assert ok
    np.testing.assert_allclose(R[:, 2], [0.0, 0.0, 1.0], atol=1e-12)


def test_h_R_gravity_up():
    R, ok = h_R(None, [0.0, 0.0, 9.81])
    assert ok
    np.testing.assert_allclose(R[:, 2], [0.0, 0.0, -1.0], atol=1e-12)


def test_h_R_orthonormal_random_directions():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        a = rng.normal(size=3)
        a *= 9.81 / np.linalg.norm(a)
        R, ok = h_R(None, a)
        if not ok:
            continue
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_h_R_degenerate_inputs():
    R, ok = h_R(None, [0.0, 0.0, 0.0])
    assert not ok
    np.testing.assert_array_equal(R, np.eye(3))
    R, ok = h_R(None, [9.81, 0.0, 0.0])
    assert not ok
    np.testing.assert_array_equal(R, np.eye(3))


def _h_R_reference(accel):
    """h_R in plain array form: np.linalg.norm, np.cross, np.column_stack."""
    a = np.asarray(accel, dtype=float)
    n = np.linalg.norm(a)
    if n <= 0.5 * 9.81:
        return np.eye(3), False
    z = -a / n
    ex = np.array([1.0, 0.0, 0.0])
    x = ex - (ex @ z) * z
    nx = np.linalg.norm(x)
    if nx < 1e-6:
        return np.eye(3), False
    x = x / nx
    return np.column_stack([x, np.cross(z, x), z]), True


def test_h_R_equals_reference_formulation_bitwise():
    rng = np.random.default_rng(21)
    accels = [rng.normal(size=3) * s for s in (2.0, 10.0, 100.0) for _ in range(3000)]
    # signed zeros, exact axes, and readings near the x-axis degeneracy
    accels += [np.array([x, y, z]) for x in (0.0, -0.0, 1.0, -9.81, 9.81)
               for y in (0.0, -0.0, 1e-7, -2.0) for z in (0.0, -0.0, 9.81, -9.81)]
    for a in accels:
        R, ok = h_R(None, a)
        R_ref, ok_ref = _h_R_reference(a)
        assert ok == ok_ref
        assert R.shape == (3, 3) and R.tobytes() == R_ref.tobytes()


# ---------------------------------------------------------------------------
# J_p


def test_J_p_stacked_ids_equal_single_ids_bitwise():
    q_true = asymmetric_stance(CFG)
    meas = measurement_of(q_true)
    prior = RobotShape(0.0, q_true)
    both = J_p(meas, (2, 5), CFG, prior=prior)
    J2, J5 = (J_p(meas, e, CFG, prior=prior) for e in (2, 5))
    assert both.shape == (2, 3, 9) and J2.shape == (3, 9)
    assert np.array_equal(both, np.stack([J2, J5]))


@pytest.mark.parametrize("bad", [6, -1, 2.0, None, (2, 6)])
def test_J_p_rejects_invalid_id_before_solving(monkeypatch, bad):
    calls = []
    monkeypatch.setattr(tenseg.shape, "reconstruct_shape",
                        lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError):
        J_p(measurement_of(canonical_prism(CFG)), bad, CFG)
    assert calls == []


def test_J_p_base_endcap_is_zero():
    meas = measurement_of(canonical_prism(CFG))
    J = J_p(meas, 0, CFG)
    np.testing.assert_allclose(J, np.zeros((3, 9)), atol=1e-9)


def test_J_p_step_halving_agreement():
    q_true = random_feasible_shape(np.random.default_rng(8))
    meas = measurement_of(q_true)
    J1 = J_p(meas, 2, CFG, prior=RobotShape(0.0, q_true))
    J2 = J_p(meas, 2, replace(CFG, fd_step=CFG.fd_step / 2),
             prior=RobotShape(0.0, q_true))
    assert np.max(np.abs(J1 - J2)) < 1e-3


def test_J_p_predicts_displacement():
    rng = np.random.default_rng(9)
    q_true = asymmetric_stance(CFG)
    meas = measurement_of(q_true)
    nominal = reconstruct_shape(meas, RobotShape(0.0, q_true), CFG)
    J = J_p(meas, 3, CFG, prior=nominal)
    dl = rng.normal(size=9)
    dl *= 1e-3 / np.linalg.norm(dl)
    pert = CableMeasurements(0.0, meas.lengths + dl)
    moved = reconstruct_shape(pert, nominal, CFG)
    actual = h_p(moved, 3) - h_p(nominal, 3)
    predicted = J @ dl
    assert np.linalg.norm(predicted - actual) <= 0.05 * np.linalg.norm(actual)


def test_gauge_alignment_identity_on_match():
    q = canonical_prism(CFG)
    np.testing.assert_allclose(_align_gauge(q[2:], q[2:]), q[2:], atol=1e-12)


# ---------------------------------------------------------------------------
# Constraint kernels: gradients against central differences, and values
# and gradients bit for bit against the np.cross / einsum formulation.


def _free(q, x):
    out = q.copy()
    out[2:] = x.reshape(4, 3)
    return out


def _central_difference(f, q, h=1e-6):
    x = q[2:].ravel()
    cols = []
    for k in range(12):
        dx = np.zeros(12)
        dx[k] = h
        cols.append((f(_free(q, x + dx)) - f(_free(q, x - dx))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def test_kernel_gradients_match_central_differences():
    rng = np.random.default_rng(123)
    lengths = RobotShape(0.0, asymmetric_stance(CFG)).cable_lengths()
    for _ in range(20):
        q = random_feasible_shape(rng, scale=0.1)
        for kernel in (lambda q: _cable_residual_grad(q, lengths),
                       lambda q: _rod_eq_residual_grad(q, CFG.L_rod),
                       _inequality_values_grads):
            _, grad = kernel(q)
            fd = _central_difference(lambda p: kernel(p)[0], q)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


def _reference_inequality_values_grads(q):
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


def _reference_cable_residual_grad(q, lengths):
    rows_i = np.where(_PAIR_I >= 2)[0]
    rows_j = np.where(_PAIR_J >= 2)[0]
    diff = q[_PAIR_I] - q[_PAIR_J]
    norms = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    unit = diff / norms[:, None]
    Jr = np.zeros((9, 4, 3))
    Jr[rows_i, _PAIR_I[rows_i] - 2] = unit[rows_i]
    Jr[rows_j, _PAIR_J[rows_j] - 2] -= unit[rows_j]
    return norms - lengths, Jr.reshape(9, 12)


def _reference_rod_eq_residual_grad(q, L):
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


def _kernel_test_shapes(rng):
    """Feasible, broadly random and near-degenerate shapes.

    The near-degenerate ones have the free rods almost parallel to
    each other and to the base rod, where the cross products cancel.
    Half of the broadly random ones share an x or y coordinate with
    the base rod, so some differences are exactly zero and the sign
    of each zero in the Jacobians is checked too.
    """
    for k in range(400):
        yield random_feasible_shape(rng, scale=(0.02, 0.1)[k % 2])
    for k in range(400):
        q = canonical_prism(CFG)
        q[2:] += rng.normal(scale=0.5, size=(4, 3))
        if k % 2:
            q[2:, k % 4 // 2] = 0.0
        yield q
    for _ in range(400):
        q = canonical_prism(CFG)
        axis = np.array([0.0, 0.0, 1.0])
        for i, j in ((2, 3), (4, 5)):
            u = axis + rng.normal(scale=10.0 ** rng.uniform(-12, -4), size=3)
            m = rng.normal(scale=0.3, size=3)
            q[i] = m + CFG.L_rod / 2.0 * u / np.linalg.norm(u)
            q[j] = m - CFG.L_rod / 2.0 * u / np.linalg.norm(u)
        yield q


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_kernels_equal_reference_formulation_bitwise():
    rng = np.random.default_rng(2024)
    for q in _kernel_test_shapes(rng):
        lengths = rng.uniform(0.3, 2.0, size=9)
        pairs = ((_inequality_values_grads, _reference_inequality_values_grads, ()),
                 (_cable_residual_grad, _reference_cable_residual_grad, (lengths,)),
                 (_rod_eq_residual_grad, _reference_rod_eq_residual_grad, (CFG.L_rod,)))
        for kernel, reference, args in pairs:
            for a, b in zip(kernel(q, *args), reference(q, *args)):
                assert _same_bits(a, b)


def _reference_check_constraints(shape, cfg):
    """The 11 margins as check_constraints first computed them, one
    numpy expression per group."""
    q = shape.q
    q0, q1 = base_rod_endcaps(cfg)
    margins = {}
    margins["fixed_q0"] = cfg.rod_tol - np.max(np.abs(q[0] - q0))
    margins["fixed_q1"] = cfg.rod_tol - np.max(np.abs(q[1] - q1))
    vals, _ = tenseg.shape._inequality_values(q)
    margins["upper_half_plane"] = min(vals[0], vals[1])
    margins["lower_half_plane"] = min(vals[2], vals[3])
    rod_err = max(
        abs(np.linalg.norm(q[0] - q[1]) - cfg.L_rod),
        abs(np.linalg.norm(q[2] - q[3]) - cfg.L_rod),
        abs(np.linalg.norm(q[4] - q[5]) - cfg.L_rod),
    )
    margins["rod_lengths"] = cfg.rod_tol - rod_err
    for name, v in zip(tenseg.shape._INEQ_NAMES[4:], vals[4:]):
        margins[name] = v
    return ConstraintReport(margins=margins,
                            passed=all(v >= 0 for v in margins.values()))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_constraint_margins_equal_reference_bitwise():
    rng = np.random.default_rng(41)
    q_ref = asymmetric_stance(CFG)
    passed = 0
    for k in range(3000):
        q = q_ref + rng.normal(scale=10.0 ** rng.uniform(-9, -1), size=(6, 3))
        if k % 3:
            q[:2] = q_ref[:2] + rng.normal(scale=1e-6, size=(2, 3)) * (k % 2)
        if k % 40 == 0:
            q[rng.integers(6), rng.integers(3)] = rng.choice(
                [np.nan, np.inf, -np.inf, -0.0])
        shape = RobotShape(0.0, q)
        ours, ref = check_constraints(shape, CFG), _reference_check_constraints(shape, CFG)
        assert list(ours.margins) == list(ref.margins)
        assert (np.array(list(ours.margins.values())).tobytes()
                == np.array(list(ref.margins.values())).tobytes())
        assert ours.passed == ref.passed
        passed += ours.passed
    assert 300 < passed < 2700
