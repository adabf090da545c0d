"""The filter's IMU step against a plain reference formulation, bit for bit.

The reference below is the straightforward version of `propagate`,
`_system_matrix`, `_process_noise` and `correct_contact`, together with
the SO(3)/SE_K(3) maps they use and the FK covariance of either mode:
every matrix is rebuilt on each call, every state goes through the
validating public constructors, and the conditioning gate is
`np.linalg.cond`.  The package's lean versions must give the same bits
on every output, sign bits included.
"""

from dataclasses import replace

import numpy as np
import pytest

from tenseg import inekf
from tenseg.inekf import (
    CHI2_GATE_3DOF,
    MAX_CONDITION,
    MAX_DT,
    SIGMA_ACCEL,
    SIGMA_ACCEL_BIAS,
    SIGMA_CABLE,
    SIGMA_CONTACT,
    SIGMA_FK,
    SIGMA_GYRO,
    SIGMA_GYRO_BIAS,
    ContactAidedFilter,
    CorrectionInfo,
    EstimatorState,
    FilterError,
    ImuBias,
    ImuSample,
    correct_contact,
    propagate,
)
from tenseg.liegroup import GroupElement
from tenseg.shape import (
    GRAVITY,
    RobotShape,
    ShapeSolverConfig,
    asymmetric_stance,
    h_p,
)

# ---------------------------------------------------------------------------
# reference formulation


def ref_skew(v):
    x, y, z = v
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def ref_so3_exp(phi):
    phi = np.asarray(phi, dtype=float)
    theta = np.linalg.norm(phi)
    S = ref_skew(phi)
    if theta < 1e-8:
        return np.eye(3) + S + 0.5 * (S @ S)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / theta**2
    return np.eye(3) + a * S + b * (S @ S)


def ref_so3_left_jacobian(phi):
    phi = np.asarray(phi, dtype=float)
    theta = np.linalg.norm(phi)
    S = ref_skew(phi)
    if theta < 1e-8:
        return np.eye(3) + 0.5 * S + (S @ S) / 6.0
    a = (1.0 - np.cos(theta)) / theta**2
    b = (theta - np.sin(theta)) / theta**3
    return np.eye(3) + a * S + b * (S @ S)


def ref_sek3_exp(xi):
    xi = np.asarray(xi, dtype=float)
    K = xi.size // 3 - 1
    phi = xi[:3]
    R = ref_so3_exp(phi)
    J = ref_so3_left_jacobian(phi)
    return GroupElement(R, J @ xi[3:].reshape(K, 3).T)


def ref_compose(a, b):
    return GroupElement(a.rot @ b.rot, a.rot @ b.cols + a.cols)


def ref_column_cross_terms(state):
    cols = state.group.cols
    K = cols.shape[1]
    S = np.zeros((K, 3, 3))
    S[:, 0, 1] = -cols[2]
    S[:, 0, 2] = cols[1]
    S[:, 1, 0] = cols[2]
    S[:, 1, 2] = -cols[0]
    S[:, 2, 0] = -cols[1]
    S[:, 2, 1] = cols[0]
    return S @ state.rotation


def ref_system_matrix(state, W=None):
    n = state.dim
    if W is None:
        W = ref_column_cross_terms(state)
    A = np.zeros((n, n))
    A[3:6, 0:3] = ref_skew(GRAVITY)
    idx = np.arange(3)
    A[idx + 6, idx + 3] = 1.0
    R = state.rotation
    k0 = n - 6
    A[0:3, k0:k0 + 3] = -R
    A[3:6, k0 + 3:k0 + 6] = -R
    for k in range(state.group.K):
        A[3 + 3 * k:6 + 3 * k, k0:k0 + 3] = -W[k]
    return A


def ref_process_noise(state, contact_frame, W=None):
    n = state.dim
    ng = n - 6
    diag = np.empty(ng)
    diag[0:3] = SIGMA_GYRO**2
    diag[3:6] = SIGMA_ACCEL**2
    diag[6:9] = 0.0
    diag[9:] = SIGMA_CONTACT**2
    if W is None:
        W = ref_column_cross_terms(state)
    R = state.rotation
    Ad = np.zeros((ng, ng))
    Ad[0:3, 0:3] = R
    for k in range(state.group.K):
        r = 3 * (1 + k)
        Ad[r:r + 3, 0:3] = W[k]
        Ad[r:r + 3, r:r + 3] = R
    Q = np.zeros((n, n))
    Q[:ng, :ng] = (Ad * diag) @ Ad.T
    idx = np.arange(ng, n)
    Q[idx[:3], idx[:3]] = SIGMA_GYRO_BIAS**2
    Q[idx[3:], idx[3:]] = SIGMA_ACCEL_BIAS**2
    return Q


def ref_propagate(state, imu, dt, contact_frame=None):
    if not (0.0 < dt <= MAX_DT):
        raise FilterError(f"rejected IMU sample: dt={dt}")
    omega = imu.gyro - state.bias.gyro
    acc = imu.accel - state.bias.accel
    R = state.rotation
    a_w = R @ acc + GRAVITY
    v = state.velocity
    cols = state.group.cols.copy()
    cols[:, 0] = v + a_w * dt
    cols[:, 1] = state.group.cols[:, 1] + v * dt + 0.5 * a_w * dt**2
    group = GroupElement(R @ ref_so3_exp(omega * dt), cols)

    W = ref_column_cross_terms(state)
    A = ref_system_matrix(state, W)
    n = state.dim
    Phi = A * dt
    Phi += (0.5 * dt * dt) * (A @ A)
    Phi.flat[:: n + 1] += 1.0
    M = state.P + ref_process_noise(state, contact_frame, W) * dt
    P = Phi @ M @ Phi.T
    return replace(state, group=group, P=P, timestamp=state.timestamp + dt)


def ref_fk_covariance(mode, jacobian=None):
    """Body-frame FK covariance: J Sigma J^T of the cable noise in jacobian
    mode when a Jacobian is at hand, SIGMA_FK^2 I otherwise."""
    if mode == "jacobian" and jacobian is not None:
        return jacobian @ (SIGMA_CABLE**2 * np.eye(9)) @ jacobian.T
    return SIGMA_FK**2 * np.eye(3)


def ref_correct_contact(state, endcap, shape, cov_fk):
    if endcap not in state.active_contacts:
        raise FilterError(f"endcap {endcap} not active")
    R = state.rotation
    m = h_p(shape, endcap)
    z = R @ m + state.position - state.contact_position(endcap)

    n = state.dim
    H = np.zeros((3, n))
    H[:, 6:9] = -np.eye(3)
    sl = state.contact_slice(endcap)
    H[:, sl] = np.eye(3)
    N = R @ cov_fk @ R.T
    S = H @ state.P @ H.T + N
    if np.linalg.cond(S) > MAX_CONDITION:
        return state, CorrectionInfo(False, "ill_conditioned", z, np.inf)
    Sinv = np.linalg.inv(S)
    maha = float(z @ Sinv @ z)
    if maha > CHI2_GATE_3DOF:
        return state, CorrectionInfo(False, "outlier", z, maha)

    L = state.P @ H.T @ Sinv
    delta = L @ z
    ng = 9 + 3 * len(state.active_contacts)
    group = ref_compose(ref_sek3_exp(delta[:ng]), state.group)
    bias = ImuBias(accel=state.bias.accel + delta[ng + 3:ng + 6],
                   gyro=state.bias.gyro + delta[ng:ng + 3])
    ILH = np.eye(n) - L @ H
    P = ILH @ state.P @ ILH.T + L @ N @ L.T
    return replace(state, group=group, bias=bias, P=P), \
        CorrectionInfo(True, "applied", z, maha)


# ---------------------------------------------------------------------------
# random cases

SHAPE = RobotShape(0.0, asymmetric_stance(ShapeSolverConfig()))
EMPIRICAL = ref_fk_covariance("empirical")


def random_state(rng, n_contacts, small_rotation=False):
    contacts = tuple(int(c) for c in rng.choice(6, n_contacts, replace=False))
    phi = rng.normal(size=3) * (1e-10 if small_rotation else 1.0)
    cols = rng.normal(size=(3, 2 + n_contacts))
    # exact zeros in some columns exercise the sign of zero products
    if rng.random() < 0.3:
        cols[:, rng.integers(cols.shape[1])] = 0.0
    n = EstimatorState.dim_of(n_contacts)
    B = rng.normal(size=(n, n)) * rng.choice([1e-3, 1e-2, 0.1])
    bias = ImuBias(accel=rng.normal(size=3) * 0.05,
                   gyro=rng.normal(size=3) * 0.01)
    return EstimatorState(GroupElement(ref_so3_exp(phi), cols), contacts,
                          bias, B @ B.T, float(rng.uniform(0.0, 100.0)))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_state(got, want):
    assert same_bits(got.group.rot, want.group.rot)
    assert same_bits(got.group.cols, want.group.cols)
    assert same_bits(got.bias.accel, want.bias.accel)
    assert same_bits(got.bias.gyro, want.bias.gyro)
    assert same_bits(got.P, want.P)
    assert got.active_contacts == want.active_contacts
    assert same_bits(got.timestamp, want.timestamp)
    # successors are as immutable and as symmetric as validated states
    for a in (got.group.rot, got.group.cols, got.bias.accel, got.bias.gyro,
              got.P):
        assert not a.flags.writeable
        assert a.flags.c_contiguous
    assert same_bits(got.P, got.P.T)


def assert_same_info(got, want):
    assert (got.applied, got.reason) == (want.applied, want.reason)
    assert same_bits(got.innovation, want.innovation)
    assert same_bits(np.float64(got.mahalanobis), np.float64(want.mahalanobis))


@pytest.mark.parametrize("mode", ["empirical", "jacobian"])
def test_propagate_equals_reference_bitwise(mode):
    """propagate, and the IMU step of a filter without a shape in either
    FK mode, against the reference."""
    rng = np.random.default_rng(11)
    for trial in range(150):
        st = random_state(rng, trial % 5, small_rotation=trial % 7 == 0)
        gyro = rng.normal(size=3) * rng.choice([1e-3, 1.0])
        if trial % 6 == 0:
            gyro = st.bias.gyro.copy()      # zero rate: the series branch
        accel = rng.normal(size=3) * 5.0
        dt = float(rng.choice([0.001, 0.005, MAX_DT, rng.uniform(1e-4, MAX_DT)]))
        imu = ImuSample(st.timestamp + dt, accel, gyro)
        W = ref_column_cross_terms(st)
        assert same_bits(inekf._column_cross_terms(st), W)
        assert same_bits(inekf._system_matrix(st, W), ref_system_matrix(st))
        assert same_bits(inekf._process_noise(st, None, W),
                         ref_process_noise(st, None))
        assert_same_state(propagate(st, imu, dt), ref_propagate(st, imu, dt))
        # the filter steps by the difference of the stamps
        dt_log = imu.timestamp - st.timestamp
        if dt_log <= MAX_DT:
            f = ContactAidedFilter(st, jacobian_fk=mode == "jacobian")
            f.process_imu(imu)
            assert_same_state(f.state, ref_propagate(st, imu, dt_log))
            assert f.corrections == []


@pytest.mark.parametrize("mode", ["empirical", "jacobian"])
def test_correct_contact_equals_reference_bitwise(mode):
    rng = np.random.default_rng(12)
    reasons = set()
    for trial in range(200):
        st = random_state(rng, 1 + trial % 4, small_rotation=trial % 9 == 0)
        endcap = st.active_contacts[rng.integers(len(st.active_contacts))]
        # move the stored contact by a small, a gated or an exactly zero offset
        cols = st.group.cols.copy()
        i = 2 + st.active_contacts.index(endcap)
        cols[:, i] = st.position + st.rotation @ SHAPE.q[endcap]
        cols[:, i] += rng.normal(size=3) * rng.choice([0.0, 1e-3, 0.05, 5.0])
        st = replace(st, group=GroupElement(st.rotation, cols))
        J = rng.normal(size=(3, 9)) * 0.3 if trial % 3 else None
        if trial % 10 == 0:                 # singular S: the conditioning gate
            st = replace(st, P=np.zeros((st.dim, st.dim)))
            J = np.zeros((3, 9))
        cov_fk = ref_fk_covariance(mode, J)
        got, got_info = correct_contact(st, endcap, SHAPE, cov_fk)
        want, want_info = ref_correct_contact(st, endcap, SHAPE, cov_fk)
        assert_same_info(got_info, want_info)
        if got_info.applied:
            assert_same_state(got, want)
        else:
            assert got is st
        reasons.add(got_info.reason)
    expected = {"applied", "outlier"}
    if mode == "jacobian":
        expected.add("ill_conditioned")
    assert expected <= reasons


def test_filter_steps_equal_reference_bitwise():
    """Chained propagate/correct steps stay equal, not just single steps."""
    rng = np.random.default_rng(13)
    st = random_state(rng, 3)
    st = replace(st, P=st.P * 1e-4)
    ref = st
    for k in range(300):
        imu = ImuSample(st.timestamp + 0.005, rng.normal(size=3) + [0, 0, 9.81],
                        rng.normal(size=3) * 0.2)
        st = propagate(st, imu, 0.005)
        ref = ref_propagate(ref, imu, 0.005)
        endcap = st.active_contacts[k % 3]
        st, info = correct_contact(st, endcap, SHAPE, EMPIRICAL)
        ref, ref_info = ref_correct_contact(ref, endcap, SHAPE, EMPIRICAL)
        assert_same_info(info, ref_info)
        assert_same_state(st, ref)


def test_ill_conditioned_gate_matches_np_cond():
    """cond(S) > MAX_CONDITION, with cond's 0/0 -> inf rule, decides the gate."""
    st = random_state(np.random.default_rng(14), 1)
    endcap = st.active_contacts[0]
    for scale in (0.0, 1e-300, 1e-20, 1e-13, 1e-12, 1e-11, 1.0):
        P = np.zeros((st.dim, st.dim))
        P[6, 6] = 1.0
        P[7, 7] = scale
        s = replace(st, P=P)
        cov_fk = ref_fk_covariance("jacobian", np.zeros((3, 9)))
        _, info = correct_contact(s, endcap, SHAPE, cov_fk)
        _, want = ref_correct_contact(s, endcap, SHAPE, cov_fk)
        assert info.reason == want.reason
