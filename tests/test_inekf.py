import numpy as np
import pytest
from dataclasses import replace

import tenseg.shape
from tenseg.inekf import (
    CHI2_GATE_3DOF,
    CalibrationError,
    ContactAidedFilter,
    ContactVector,
    EstimatorState,
    FilterConfig,
    FilterError,
    ImuBias,
    ImuSample,
    NoiseConfig,
    augment_contact,
    correct_contact,
    fk_covariance_body,
    init_bias_calibration,
    initial_state,
    marginalize_contact,
    propagate,
    right_invariant_error,
)
from tenseg.liegroup import (
    GroupElement,
    adjoint,
    compose,
    inverse,
    sek3_exp,
    sek3_log,
    so3_exp,
    skew,
)
from tenseg.shape import (
    CableMeasurements,
    RobotShape,
    ShapeSolverConfig,
    asymmetric_stance,
)

CFG = NoiseConfig()
SOLVER = ShapeSolverConfig()
GRAVITY = np.array([0.0, 0.0, -9.81])
DT = 0.005

Q_STANCE = asymmetric_stance(SOLVER)


def imu_at(t, accel=(0.0, 0.0, 9.81), gyro=(0.0, 0.0, 0.0)):
    return ImuSample(t, np.asarray(accel, float), np.asarray(gyro, float))


def static_samples(n, accel=(0.0, 0.0, 9.81), gyro=(0.0, 0.0, 0.0), rng=None,
                   sa=0.0, sg=0.0):
    out = []
    for k in range(n):
        a = np.asarray(accel, float).copy()
        g = np.asarray(gyro, float).copy()
        if rng is not None:
            a = a + rng.normal(scale=sa, size=3)
            g = g + rng.normal(scale=sg, size=3)
        out.append(ImuSample(k * DT, a, g))
    return out


def state_with_contact(endcap=3, shape_q=None):
    """Estimator at the origin, level, with one self-consistent contact."""
    q = Q_STANCE if shape_q is None else shape_q
    st = initial_state(np.eye(3), ImuBias(), 0.0)
    return augment_contact(st, endcap, RobotShape(0.0, q), CFG), RobotShape(0.0, q)


# ---------------------------------------------------------------------------
# calibration


def test_calibration_level_zero_noise():
    bias, R0 = init_bias_calibration(static_samples(400), 2.0, CFG)
    np.testing.assert_allclose(R0, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(bias.gyro, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(bias.accel, np.zeros(3), atol=1e-12)


def test_calibration_recovers_pitch():
    R0_true = so3_exp([0.0, np.deg2rad(15.0), 0.0])
    accel = R0_true.T @ (-GRAVITY)
    bias, R0 = init_bias_calibration(static_samples(400, accel=accel), 2.0, CFG)
    np.testing.assert_allclose(R0, R0_true, atol=1e-9)
    np.testing.assert_allclose(bias.accel, np.zeros(3), atol=1e-9)


def test_calibration_recovers_biases_under_noise():
    rng = np.random.default_rng(3)
    bg = np.array([0.002, -0.001, 0.0005])
    ba_z = 0.01  # only the along-gravity accel bias component is observable
    samples = static_samples(
        800, accel=(0.0, 0.0, 9.81 + ba_z), gyro=bg,
        rng=rng, sa=CFG.sigma_accel, sg=CFG.sigma_gyro)
    bias, R0 = init_bias_calibration(samples, 4.0, CFG)
    np.testing.assert_allclose(bias.gyro, bg, atol=5e-4)
    assert abs(bias.accel @ R0.T @ [0, 0, 1] - ba_z) < 0.01


def test_calibration_rejects_motion():
    samples = [imu_at(k * DT, gyro=(0.8 * np.sin(k * 0.1), 0.0, 0.0))
               for k in range(400)]
    with pytest.raises(CalibrationError):
        init_bias_calibration(samples, 2.0, CFG)


def test_calibration_rejects_short_window():
    with pytest.raises(CalibrationError):
        init_bias_calibration(static_samples(100), 0.5, CFG)


def test_calibration_accepts_one_second_window():
    # 400 samples at 200 Hz.  With timestamps k / 200 the samples within
    # 1 s of the first span 1.005 - 0.005 = 0.9999999999999999 s; with
    # k * 0.005, as the simulator writes them, 1.0050000000000001 falls
    # outside and 200 samples span 0.995 s, yet hold 1 s of data
    for stamp in (lambda k: k / 200.0, lambda k: k * 0.005):
        samples = [imu_at(stamp(k)) for k in range(1, 401)]
        for duration in (1.0, 1.0000001):
            bias, R0 = init_bias_calibration(samples, duration, CFG)
            np.testing.assert_allclose(R0, np.eye(3), atol=1e-12)
    with pytest.raises(CalibrationError):
        init_bias_calibration(samples[:199], 1.0, CFG)


def test_chi2_gate_is_the_999_quantile():
    from scipy.stats import chi2
    assert CHI2_GATE_3DOF == chi2.ppf(0.999, 3)


# ---------------------------------------------------------------------------
# propagation


def test_propagate_stationary_equilibrium():
    st = initial_state(np.eye(3), ImuBias(), 0.0)
    for k in range(200):
        st = propagate(st, imu_at((k + 1) * DT), DT, CFG)
    np.testing.assert_allclose(st.velocity, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(st.position, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(st.rotation, np.eye(3), atol=1e-12)


def test_propagate_constant_yaw_rate():
    st = initial_state(np.eye(3), ImuBias(), 0.0)
    for k in range(200):
        st = propagate(st, imu_at((k + 1) * DT, gyro=(0.0, 0.0, 1.0)), DT, CFG)
    np.testing.assert_allclose(st.rotation, so3_exp([0.0, 0.0, 1.0]), atol=1e-9)
    np.testing.assert_allclose(st.position, np.zeros(3), atol=1e-9)


def test_propagate_free_fall():
    st = initial_state(np.eye(3), ImuBias(), 0.0)
    n = 100
    for k in range(n):
        st = propagate(st, imu_at((k + 1) * DT, accel=(0, 0, 0)), DT, CFG)
    t = n * DT
    np.testing.assert_allclose(st.velocity, GRAVITY * t, atol=1e-12)
    np.testing.assert_allclose(st.position, 0.5 * GRAVITY * t**2, atol=1e-12)


def test_propagate_applies_bias_correction():
    bg = np.array([0.0, 0.0, 0.3])
    st = initial_state(np.eye(3), ImuBias(gyro=bg), 0.0)
    st = propagate(st, imu_at(DT, gyro=bg), DT, CFG)
    np.testing.assert_allclose(st.rotation, np.eye(3), atol=1e-12)


def test_propagate_rejects_bad_dt():
    st = initial_state(np.eye(3), ImuBias(), 0.0)
    with pytest.raises(FilterError):
        propagate(st, imu_at(0.2), 0.2, CFG)
    with pytest.raises(FilterError):
        propagate(st, imu_at(0.0), 0.0, CFG)


def test_propagate_covariance_grows_and_stays_psd():
    st = initial_state(np.eye(3), ImuBias(), 0.0)
    tr0 = np.trace(st.P)
    for k in range(100):
        st = propagate(st, imu_at((k + 1) * DT), DT, CFG)
    assert np.trace(st.P) > tr0
    np.testing.assert_allclose(st.P, st.P.T, atol=1e-15)
    assert np.linalg.eigvalsh(st.P).min() >= -1e-12


# ---------------------------------------------------------------------------
# augment / marginalize


def test_augment_places_contact_by_forward_kinematics():
    st = initial_state(so3_exp([0.1, -0.2, 0.3]), ImuBias(), 0.0,
                       position=(1.0, 2.0, 0.5))
    shape = RobotShape(0.0, Q_STANCE)
    st2 = augment_contact(st, 4, shape, CFG)
    expected = st.position + st.rotation @ Q_STANCE[4]
    np.testing.assert_allclose(st2.contact_position(4), expected, atol=1e-12)
    assert st2.active_contacts == (4,)
    assert st2.dim == st.dim + 3


def test_augment_covariance_structure():
    st = initial_state(np.eye(3), ImuBias(), 0.0)
    st2 = augment_contact(st, 3, RobotShape(0.0, Q_STANCE), CFG)
    # new block = position block plus rotated forward-kinematics covariance
    np.testing.assert_allclose(
        st2.P[9:12, 9:12], st.P[6:9, 6:9] + CFG.sigma_fk**2 * np.eye(3),
        atol=1e-15)
    np.testing.assert_allclose(st2.P[9:12, 0:9], st.P[6:9, 0:9], atol=1e-15)


def test_augment_marginalize_round_trip():
    st = initial_state(so3_exp([0.05, 0.1, -0.2]), ImuBias(), 0.0)
    st2 = marginalize_contact(
        augment_contact(st, 2, RobotShape(0.0, Q_STANCE), CFG), 2)
    np.testing.assert_array_equal(st2.group.rot, st.group.rot)
    np.testing.assert_array_equal(st2.group.cols, st.group.cols)
    np.testing.assert_allclose(st2.P, st.P, atol=1e-15)
    assert st2.active_contacts == ()


def test_augment_duplicate_and_marginalize_missing_raise():
    st, shape = state_with_contact(3)
    with pytest.raises(FilterError):
        augment_contact(st, 3, shape, CFG)
    with pytest.raises(FilterError):
        marginalize_contact(st, 5)


# ---------------------------------------------------------------------------
# correction


def test_zero_innovation_fixed_point():
    st, shape = state_with_contact(3)
    for _ in range(3):
        tr = np.trace(st.P)
        st2, info = correct_contact(st, 3, shape, CFG)
        assert info.applied
        np.testing.assert_allclose(info.innovation, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(st2.rotation, st.rotation, atol=1e-12)
        np.testing.assert_allclose(st2.position, st.position, atol=1e-12)
        assert np.trace(st2.P) <= tr + 1e-15
        st = st2


def test_correction_shrinks_innovation():
    st, shape = state_with_contact(3)
    cols = st.group.cols.copy()
    cols[:, 2] += [0.02, -0.008, 0.012]
    st = replace(st, group=GroupElement(st.group.rot, cols))
    st2, info = correct_contact(st, 3, shape, CFG)
    assert info.applied
    _, info2 = correct_contact(st2, 3, shape, CFG)
    assert np.linalg.norm(info2.innovation) < 0.6 * np.linalg.norm(info.innovation)


def test_outlier_gate_rejects_large_innovation():
    st, shape = state_with_contact(3)
    cols = st.group.cols.copy()
    cols[:, 2] += [10.0, 0.0, 0.0]
    bad = replace(st, group=GroupElement(st.group.rot, cols))
    st2, info = correct_contact(bad, 3, shape, CFG)
    assert not info.applied
    assert info.reason == "outlier"
    np.testing.assert_array_equal(st2.group.cols, bad.group.cols)


def test_ill_conditioned_innovation_skipped():
    st, shape = state_with_contact(3)
    st = replace(st, P=np.zeros((st.dim, st.dim)))
    cfg = replace(CFG, fk_covariance_mode="jacobian")
    st2, info = correct_contact(st, 3, shape, cfg, fk_jacobian=np.zeros((3, 9)))
    assert not info.applied
    assert info.reason == "ill_conditioned"


def test_joseph_update_keeps_psd():
    rng = np.random.default_rng(7)
    st, shape = state_with_contact(3)
    for _ in range(20):
        cols = st.group.cols.copy()
        cols[:, 2] += rng.normal(scale=0.01, size=3)
        st = replace(st, group=GroupElement(st.group.rot, cols))
        st, info = correct_contact(st, 3, shape, CFG)
        np.testing.assert_allclose(st.P, st.P.T, atol=1e-14)
        assert np.linalg.eigvalsh(st.P).min() >= -1e-12
        st = propagate(st, imu_at(st.timestamp + DT), DT, CFG)


def test_static_corrections_pull_velocity_error_down():
    st, shape = state_with_contact(3)
    cols = st.group.cols.copy()
    cols[:, 0] = [0.1, -0.1, 0.05]  # inject a velocity error; truth is at rest
    st = replace(st, group=GroupElement(st.group.rot, cols))
    v0 = np.linalg.norm(st.velocity)
    for k in range(400):
        st = propagate(st, imu_at((k + 1) * DT), DT, CFG)
        st, _ = correct_contact(st, 3, shape, CFG)
    err = right_invariant_error(st, np.eye(3), np.zeros(3), np.zeros(3))
    assert np.linalg.norm(err[3:6]) < 0.1 * v0


# ---------------------------------------------------------------------------
# linearization and invariance properties


def test_error_propagation_linearization_order():
    # Richardson check: the residual between the propagated nonlinear error
    # and its linear prediction Phi @ e must shrink quadratically with the
    # error scale.
    rng = np.random.default_rng(17)
    dt = 1e-3
    imu = imu_at(dt, accel=(0.3, -0.2, 9.6), gyro=(0.4, 0.1, -0.3))
    b_true = ImuBias(accel=[0.02, -0.01, 0.03], gyro=[0.003, 0.002, -0.001])
    truth = EstimatorState(
        group=GroupElement(so3_exp([0.2, -0.1, 0.4]),
                           rng.normal(size=(3, 3))),
        active_contacts=(3,), bias=b_true, P=np.eye(18) * 1e-4, timestamp=0.0)
    xi_dir = rng.normal(size=12)
    db_dir = rng.normal(size=6)

    from tenseg.inekf import _system_matrix

    def residual(s):
        est_group = compose(sek3_exp(s * xi_dir), truth.group)
        est = replace(truth, group=est_group,
                      bias=ImuBias(accel=b_true.accel + s * db_dir[3:],
                                   gyro=b_true.gyro + s * db_dir[:3]))
        A = _system_matrix(est, CFG)
        Phi = np.eye(18) + A * dt + 0.5 * (A @ A) * dt**2
        e0 = np.concatenate([s * xi_dir, s * db_dir])
        truth1 = propagate(truth, imu, dt, CFG)
        est1 = propagate(est, imu, dt, CFG)
        e1 = np.concatenate([
            sek3_log(compose(est1.group, inverse(truth1.group))),
            est1.bias.gyro - truth1.bias.gyro,
            est1.bias.accel - truth1.bias.accel,
        ])
        return np.linalg.norm(e1 - Phi @ e0)

    r = [residual(s) for s in (0.04, 0.02, 0.01)]
    slopes = [np.log2(r[i] / r[i + 1]) for i in range(2)]
    assert min(slopes) >= 1.9, slopes


def _yaw_translation():
    L_R = so3_exp([0.0, 0.0, 0.7])
    t = np.zeros((3, 3))
    t[:, 1] = [1.5, -0.3, 0.2]
    t[:, 2] = t[:, 1]  # same offset on position and contact columns
    return GroupElement(L_R, t)


def test_propagation_invariant_under_yaw_and_translation():
    # left-multiplying by a gravity-preserving transform (yaw plus a shared
    # position/contact offset) commutes with propagation: means map through
    # the transform, covariances through its adjoint.
    st, shape = state_with_contact(3)
    L = _yaw_translation()
    T = np.eye(st.dim)
    T[:12, :12] = adjoint(L)
    moved = replace(st, group=compose(L, st.group), P=T @ st.P @ T.T)
    imu = imu_at(DT, accel=(0.5, -0.1, 9.7), gyro=(0.2, -0.3, 0.1))
    a = propagate(st, imu, DT, CFG, contact_frame=np.eye(3))
    b = propagate(moved, imu, DT, CFG, contact_frame=np.eye(3))
    expect = compose(L, a.group)
    np.testing.assert_allclose(b.group.rot, expect.rot, atol=1e-10)
    np.testing.assert_allclose(b.group.cols, expect.cols, atol=1e-10)
    np.testing.assert_allclose(b.P, T @ a.P @ T.T, atol=1e-10)


def test_correction_invariant_under_yaw_and_translation():
    st, shape = state_with_contact(3)
    cols = st.group.cols.copy()
    cols[:, 2] += [0.03, -0.01, 0.02]
    st = replace(st, group=GroupElement(st.group.rot, cols))
    L = _yaw_translation()
    T = np.eye(st.dim)
    T[:12, :12] = adjoint(L)
    moved = replace(st, group=compose(L, st.group), P=T @ st.P @ T.T)
    a, ia = correct_contact(st, 3, shape, CFG)
    b, ib = correct_contact(moved, 3, shape, CFG)
    assert ia.applied and ib.applied
    assert abs(ia.mahalanobis - ib.mahalanobis) < 1e-9
    expect = compose(L, a.group)
    np.testing.assert_allclose(b.group.rot, expect.rot, atol=1e-10)
    np.testing.assert_allclose(b.group.cols, expect.cols, atol=1e-10)
    np.testing.assert_allclose(b.P, T @ a.P @ T.T, atol=1e-9)


def test_yaw_variance_never_decreases():
    st, shape = state_with_contact(3)
    yaw_var = st.P[2, 2]
    for k in range(200):
        st = propagate(st, imu_at((k + 1) * DT), DT, CFG)
        if k % 2 == 1:
            st, _ = correct_contact(st, 3, shape, CFG)
        assert st.P[2, 2] >= yaw_var - 1e-15
        yaw_var = st.P[2, 2]


def test_nees_consistency_monte_carlo():
    # matched-noise Monte Carlo: the 9-dof core error NEES should land in
    # the chi-square 95% interval for most runs.
    lo, hi = 2.700, 19.023
    inside = 0
    runs = 50
    d0 = Q_STANCE[3].copy()
    for run in range(runs):
        rng = np.random.default_rng(1000 + run)
        bg = rng.normal(scale=0.01, size=3)
        ba = rng.normal(scale=0.01, size=3)
        d_true = d0.copy()
        xi0 = np.concatenate([rng.normal(scale=0.01, size=3),
                              rng.normal(scale=0.1, size=3), np.zeros(3)])
        st = initial_state(np.eye(3), ImuBias(), 0.0)
        st = replace(st, group=compose(sek3_exp(xi0), st.group))
        q = Q_STANCE.copy()
        q[3] = d_true + rng.normal(scale=CFG.sigma_fk, size=3)
        st = augment_contact(st, 3, RobotShape(0.0, q), CFG)
        for k in range(200):
            bg = bg + CFG.sigma_gyro_bias * np.sqrt(DT) * rng.normal(size=3)
            ba = ba + CFG.sigma_accel_bias * np.sqrt(DT) * rng.normal(size=3)
            d_true = d_true + CFG.sigma_contact * np.sqrt(DT) * rng.normal(size=3)
            imu = ImuSample(
                (k + 1) * DT,
                np.array([0.0, 0.0, 9.81]) + ba
                + CFG.sigma_accel / np.sqrt(DT) * rng.normal(size=3),
                bg + CFG.sigma_gyro / np.sqrt(DT) * rng.normal(size=3))
            st = propagate(st, imu, DT, CFG)
            if k % 2 == 1:
                q = Q_STANCE.copy()
                q[3] = d_true + rng.normal(scale=CFG.sigma_fk, size=3)
                st, _ = correct_contact(st, 3, RobotShape(imu.timestamp, q), CFG)
        xi = right_invariant_error(st, np.eye(3), np.zeros(3), np.zeros(3))
        nees = xi @ np.linalg.solve(st.P[:9, :9], xi)
        if lo <= nees <= hi:
            inside += 1
    assert inside >= 0.8 * runs, f"{inside}/{runs} runs inside 95% bounds"


def test_long_mixed_run_stays_psd():
    rng = np.random.default_rng(29)
    st = initial_state(np.eye(3), ImuBias(), 0.0)
    shape = RobotShape(0.0, Q_STANCE)
    for k in range(3000):
        if k % 600 == 100:
            st = augment_contact(st, 3, shape, CFG)
        if k % 600 == 500 and 3 in st.active_contacts:
            st = marginalize_contact(st, 3)
        imu = imu_at((k + 1) * DT,
                     accel=np.array([0, 0, 9.81]) + rng.normal(scale=0.2, size=3),
                     gyro=rng.normal(scale=0.3, size=3))
        st = propagate(st, imu, DT, CFG)
        if 3 in st.active_contacts and k % 2 == 1:
            st, _ = correct_contact(st, 3, shape, CFG)
    np.testing.assert_allclose(st.P, st.P.T, atol=1e-12)
    assert np.linalg.eigvalsh(st.P).min() >= -1e-9 * np.trace(st.P)


# ---------------------------------------------------------------------------
# filter driver


def stance_cables(t=0.0):
    return CableMeasurements.from_vector(t, RobotShape(t, Q_STANCE).cable_lengths())


def test_driver_debounces_contact_flicker():
    f = ContactAidedFilter(initial_state(np.eye(3), ImuBias(), 0.0))
    f.process_cables(stance_cables())
    flags_on = [False, True, False, True, False, True]
    f.step(imu_at(DT), contacts=ContactVector(DT, flags_on))
    f.step(imu_at(2 * DT), contacts=ContactVector(2 * DT, [False] * 6))
    f.step(imu_at(3 * DT), contacts=ContactVector(3 * DT, flags_on))
    assert f.state.active_contacts == ()


def test_driver_augments_and_drops_on_clean_edges():
    f = ContactAidedFilter(initial_state(np.eye(3), ImuBias(), 0.0))
    f.process_cables(stance_cables())
    on = ContactVector(0.0, [i == 3 for i in range(6)])
    off = ContactVector(0.0, [False] * 6)
    f.step(imu_at(DT), contacts=on)
    assert f.state.active_contacts == ()
    f.step(imu_at(2 * DT), contacts=on)
    assert f.state.active_contacts == (3,)
    f.step(imu_at(3 * DT), contacts=off)
    assert f.state.active_contacts == (3,)
    f.step(imu_at(4 * DT), contacts=off)
    assert f.state.active_contacts == ()


def test_driver_static_run_tracks_truth():
    f = ContactAidedFilter(initial_state(np.eye(3), ImuBias(), 0.0))
    flags = [i in (1, 3, 5) for i in range(6)]
    for k in range(1, 101):
        t = k * DT
        cables = stance_cables(t) if k % 2 == 0 else None
        f.step(imu_at(t), contacts=ContactVector(t, flags), cables=cables)
    assert f.state.active_contacts == (1, 3, 5)
    assert np.linalg.norm(f.state.position) < 1e-3
    assert np.linalg.norm(f.state.velocity) < 1e-3
    assert f.corrections and all(c.applied for c in f.corrections)


def test_driver_keeps_stale_shape_on_bad_measurement():
    f = ContactAidedFilter(initial_state(np.eye(3), ImuBias(), 0.0))
    f.process_cables(stance_cables())
    good = f.shape
    bad = np.full(9, 3.5)  # beyond the geometric range, rejected up front
    f.process_cables(CableMeasurements.from_vector(DT, bad))
    assert f.shape is good
    assert f.solver_failures == 1


def test_driver_one_J_p_sweep_per_fresh_shape(monkeypatch):
    calls = []
    sweep = tenseg.shape.J_p

    def counted(meas, contact_endcap, cfg, prior=None):
        calls.append(meas.timestamp)
        return sweep(meas, contact_endcap, cfg, prior=prior)

    monkeypatch.setattr(tenseg.shape, "J_p", counted)
    cfg = FilterConfig(noise=replace(CFG, fk_covariance_mode="jacobian"))
    f = ContactAidedFilter(initial_state(np.eye(3), ImuBias(), 0.0), cfg)
    flags = [i in (1, 3) for i in range(6)]
    fresh = []
    for k in range(1, 9):
        t = k * DT
        cables = stance_cables(t) if k % 2 == 0 else None
        f.step(imu_at(t), contacts=ContactVector(t, flags), cables=cables)
        assert f.state.active_contacts == ((1, 3) if k >= 2 else ())
        if cables is not None:
            fresh.append(t)
            assert len(f.corrections) == 2
    assert calls == fresh


def test_fk_covariance_modes():
    np.testing.assert_allclose(fk_covariance_body(CFG),
                               CFG.sigma_fk**2 * np.eye(3))
    J = np.random.default_rng(0).normal(size=(3, 9))
    cfg = replace(CFG, fk_covariance_mode="jacobian")
    np.testing.assert_allclose(fk_covariance_body(cfg, J),
                               CFG.sigma_cable**2 * (J @ J.T))
