from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest

from tenseg import simulator
from tenseg.inekf import (
    SIGMA_ACCEL,
    SIGMA_GYRO,
    ImuBias,
    ImuSample,
    initial_state,
    propagate,
)
from tenseg.liegroup import SMALL_ANGLE, so3_exp, so3_log
from tenseg.shape import (
    GRAVITY,
    RobotShape,
    ShapeSolverConfig,
    asymmetric_stance,
    check_constraints,
    reconstruct_shape,
)
from tenseg.simulator import (
    CONTACT_RATE,
    CONTACT_TOL,
    GroundTruthFrame,
    SimConfig,
    SimulationError,
    _pow,
    _segments,
    _so3_exp_rows,
    _smoothstep,
    corrupt,
    generate,
    terrain_height,
)
from perfbench.workloads import WORKLOADS

SIM = generate(SimConfig(maneuver="forward"))
SHORT = SimConfig(maneuver="forward", target_length=1.5)


def test_initial_dwell_is_stationary():
    dwell = [f for f in SIM.frames if f.timestamp <= SIM.config.dwell]
    assert dwell[-1].timestamp >= 3.0 - 1e-9
    for f in dwell:
        np.testing.assert_array_equal(f.position, dwell[0].position)
        np.testing.assert_array_equal(f.rotation, dwell[0].rotation)
        np.testing.assert_array_equal(f.velocity, np.zeros(3))


def test_dwell_imu_measures_gravity_only():
    R0 = SIM.frames[0].rotation
    for s in SIM.imu:
        if s.timestamp > SIM.config.dwell - 0.01:
            break
        np.testing.assert_allclose(s.gyro, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(s.accel, R0.T @ (-GRAVITY), atol=1e-12)


def test_contact_counts():
    # three vertices down at rest, exactly two while tipping over an edge
    counts = {sum(c.flags) for c in SIM.contacts}
    assert counts == {2, 3}
    assert sum(SIM.contacts[0].flags) == 3


def test_rest_support_triangle_is_bottom_endcaps():
    assert tuple(i for i, f in enumerate(SIM.contacts[0].flags) if f) == (1, 3, 5)


def test_pivot_edge_vertices_stay_put():
    q = SIM.body_shape
    segs = _segments(SIM.config, q)
    for seg in segs:
        if seg[0] != "pivot":
            continue
        _, t0, t1, R0, p0, o, axis, theta = seg
        E = so3_exp(theta * axis)
        w0 = (R0 @ q.T).T + p0
        w1 = (E @ (w0 - o).T).T + o
        moved = np.linalg.norm(w1 - w0, axis=1)
        assert np.sum(moved < 1e-9) >= 2


def test_vertices_never_penetrate_terrain():
    q = SIM.body_shape
    worst = 0.0
    for f in SIM.frames[:: 7]:
        verts = (f.rotation @ q.T).T + f.position
        for v in verts:
            worst = min(worst, v[2] - terrain_height(SIM.config, v[0], v[1]))
    assert worst > -1e-6


def test_body_shape_is_reconstructible():
    cfg = ShapeSolverConfig()
    assert check_constraints(RobotShape(0.0, SIM.body_shape), cfg).passed
    sol = reconstruct_shape(SIM.cables[0], RobotShape(0.0, SIM.body_shape), cfg)
    np.testing.assert_allclose(sol.q, SIM.body_shape, atol=1e-6)


def test_cable_lengths_constant():
    first = SIM.cables[0].lengths
    np.testing.assert_array_equal(SIM.cables[-1].lengths, first)


def test_imu_strapdown_self_consistency():
    f0 = SIM.frames[0]
    st = initial_state(f0.rotation, ImuBias(), 0.0, position=f0.position)
    gt = {round(f.timestamp * SIM.config.imu_rate): f for f in SIM.frames}
    for s in SIM.imu:
        if s.timestamp > 10.0:
            break
        st = propagate(st, s, s.timestamp - st.timestamp)
    f = gt[round(st.timestamp * SIM.config.imu_rate)]
    assert np.linalg.norm(st.position - f.position) < 1e-3
    assert np.linalg.norm(st.velocity - f.velocity) < 1e-3
    assert np.linalg.norm(so3_log(st.rotation @ f.rotation.T)) < 1e-4


def test_forward_and_backward_advance():
    fwd = generate(SHORT)
    assert fwd.frames[-1].position[0] > 1.0
    bwd = generate(SimConfig(maneuver="backward", target_length=1.5))
    assert bwd.frames[-1].position[0] < -1.0


def test_path_length_reaches_target():
    assert SIM.path_length >= SIM.config.length
    assert SIM.path_length < SIM.config.length + 1.5


def test_right_turn_curves():
    sim = generate(SimConfig(maneuver="right_turn", target_length=6.0))
    assert abs(sim.frames[-1].position[1]) > 0.5


def test_valley_terrain_runs():
    sim = generate(SimConfig(terrain="valley", target_length=2.0))
    q = sim.body_shape
    worst = 0.0
    for f in sim.frames[:: 5]:
        verts = (f.rotation @ q.T).T + f.position
        for v in verts:
            worst = min(worst, v[2] - terrain_height(sim.config, v[0], v[1]))
    assert worst > -1e-6


def test_duration_limit_raises(monkeypatch):
    monkeypatch.setattr(simulator, "DURATION_LIMIT", 10.0)
    with pytest.raises(SimulationError):
        generate(SimConfig(target_length=50.0))


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        SimConfig(maneuver="sideways")
    with pytest.raises(ValueError):
        SimConfig(terrain="stairs")


@pytest.mark.parametrize("field,value", [
    *(("target_length", v) for v in (np.nan, np.inf, -1.0, 0.0)),
    *((name, v) for name in ("imu_rate", "cable_rate", "pivot_duration")
      for v in (0.0, -5.0, np.nan, np.inf)),
    *((name, v) for name in ("dwell", "final_dwell")
      for v in (-0.1, np.nan, np.inf)),
])
def test_out_of_range_config_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        SimConfig(**{field: value})


def test_zero_dwells_accepted():
    # the jacobian_fk benchmark workload ends its run without a final dwell
    sim = generate(SimConfig(dwell=0.0, final_dwell=0.0, target_length=0.5))
    assert sim.path_length >= 0.5


def test_corrupt_deterministic_per_seed():
    a = corrupt(SIM, seed=5, cable_noise=0.003, chatter=0.01)
    b = corrupt(SIM, seed=5, cable_noise=0.003, chatter=0.01)
    c = corrupt(SIM, seed=6, cable_noise=0.003, chatter=0.01)
    for x, y in zip(a.imu, b.imu):
        np.testing.assert_array_equal(x.accel, y.accel)
        np.testing.assert_array_equal(x.gyro, y.gyro)
    assert not np.array_equal(a.imu[0].accel, c.imu[0].accel)
    for x, y in zip(a.cables, b.cables):
        np.testing.assert_array_equal(x.lengths, y.lengths)


def test_corrupt_noise_variance_matches_config():
    noisy = corrupt(SIM, seed=2)
    dt = 1.0 / SIM.config.imu_rate
    diffs_g, diffs_a = [], []
    for clean, dirty in zip(SIM.imu, noisy.imu):
        if clean.timestamp > SIM.config.dwell - 0.01:
            break
        diffs_g.append(dirty.gyro - clean.gyro)
        diffs_a.append(dirty.accel - clean.accel)
    sg = np.std(np.ravel(diffs_g))
    sa = np.std(np.ravel(diffs_a))
    assert abs(sg - SIGMA_GYRO / np.sqrt(dt)) < 0.05 * SIGMA_GYRO / np.sqrt(dt)
    assert abs(sa - SIGMA_ACCEL / np.sqrt(dt)) < 0.05 * SIGMA_ACCEL / np.sqrt(dt)


def test_corrupt_defaults_leave_cables_and_contacts_clean():
    noisy = corrupt(SIM, seed=3)
    assert noisy.cables is SIM.cables
    assert noisy.contacts is SIM.contacts


def test_corrupt_chatter_one_flips_every_flag():
    noisy = corrupt(SIM, seed=4, chatter=1.0)
    assert all(d.flags == tuple(not f for f in c.flags)
               for c, d in zip(SIM.contacts, noisy.contacts))


def test_corrupt_chatter_flips_flags():
    noisy = corrupt(SIM, seed=4, chatter=0.2)
    flips = sum(c.flags != d.flags for c, d in zip(SIM.contacts, noisy.contacts))
    assert flips > 0


# ---------------------------------------------------------------------------
# array-backed streams behave as the tuples of eagerly built items they
# replace


def _eager(stream, make):
    t, *rows = stream.columns
    return tuple(map(make, t.tolist(), *rows))


def _assert_same_items(items, expected):
    assert len(items) == len(expected)
    for x, y in zip(items, expected):
        assert type(x) is type(y)
        assert type(x.timestamp) is float and x.timestamp == y.timestamp
        for name in x.__slots__[1:]:
            assert getattr(x, name).tobytes() == getattr(y, name).tobytes()


@pytest.mark.parametrize("name,make", [("frames", GroundTruthFrame),
                                       ("imu", ImuSample)])
def test_streams_behave_as_tuples(name, make):
    short = generate(SHORT)
    for stream in (getattr(short, name), getattr(corrupt(short, seed=9), name)):
        eager = _eager(stream, make)
        n = len(eager)
        assert len(stream) == n > 100
        _assert_same_items(list(stream), eager)
        _assert_same_items([stream[0], stream[-1], stream[n - 1], stream[-n]],
                           [eager[0], eager[-1], eager[-1], eager[0]])
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                stream[k]
        for k in (slice(None, None, 7), slice(3, -2, 7), slice(None, None, -7)):
            assert len(stream[k]) == len(eager[k])
            _assert_same_items(list(stream[k]), eager[k])
        _assert_same_items(list(stream[::7][1:]), eager[::7][1:])
        item = stream[0]
        for field in item.__slots__[1:]:
            with pytest.raises(ValueError, match="read-only"):
                getattr(item, field)[0] = 1.0
        for column in stream.columns:
            assert not column.flags.writeable


def test_non_finite_imu_raises_in_generate_and_corrupt(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(simulator, "GRAVITY", np.array([0.0, 0.0, np.inf]))
        with pytest.raises(ValueError, match="accel must be a finite"):
            generate(SHORT)
    clean = generate(SHORT)
    t, accel, gyro = (a.copy() for a in clean.imu.columns)
    gyro[5, 1] = np.nan
    bad = replace(clean, imu=simulator.Stream(ImuSample._trusted, t, accel,
                                              gyro))
    with pytest.raises(ValueError, match="gyro must be a finite"):
        corrupt(bad, seed=1)


# ---------------------------------------------------------------------------
# the stacked kernels against their scalar originals, bit for bit


def _angles():
    rng = np.random.default_rng(8)
    axes = rng.normal(size=(400, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    theta = np.concatenate((
        rng.uniform(0.0, 2.5, 200),                  # the simulator's range
        [0.0, 0.0, 1e-12, 0.5 * SMALL_ANGLE, SMALL_ANGLE, 2.0 * SMALL_ANGLE],
        np.pi - rng.uniform(0.0, 1e-6, 94),          # near pi
        np.pi + np.array([-1e-15, 0.0, 1e-15]), np.full(97, np.pi)))
    return theta[:, None] * axes


def test_so3_exp_rows_equals_so3_exp_bitwise():
    phi = _angles()
    stacked = _so3_exp_rows(phi)
    for row, E in zip(phi, stacked):
        assert E.tobytes() == so3_exp(row).tobytes()


def test_pow_equals_float64_power_bitwise():
    x = np.random.default_rng(9).uniform(0.0, 1.0, 20000)
    x[:4] = 0.0, 1.0, 0.5, 1e-300
    for k in (2, 3):
        expected = np.array([np.float64(v) ** k for v in x])
        assert _pow(x, k).tobytes() == expected.tobytes()


def test_smoothstep_equals_scalar_formula_bitwise():
    tau = np.concatenate(([0.0, 1.0, 0.5],
                          np.random.default_rng(10).uniform(0.0, 1.0, 5000)))
    s, ds = _smoothstep(tau)
    for t, s_k, ds_k in zip(tau, s, ds):
        t = np.float64(t)
        assert s_k == t**3 * (10.0 - 15.0 * t + 6.0 * t**2)
        assert ds_k == 30.0 * t**2 * (1.0 - t)**2


# ---------------------------------------------------------------------------
# generate against a plain reference loop, bit for bit


def _ref_kinematics(seg, t):
    """(R, p, v, omega) with np.cross, as the simulator first computed them."""
    if seg[0] == "dwell":
        _, _, _, R, p = seg
        return R, p, np.zeros(3), np.zeros(3)
    _, t0, t1, R0, p0, o, axis, theta_total = seg
    tau = np.clip((t - t0) / (t1 - t0), 0.0, 1.0)
    s = tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2)
    ds = 30.0 * tau**2 * (1.0 - tau)**2
    T = t1 - t0
    E = so3_exp(theta_total * s * axis)
    p = o + E @ (p0 - o)
    rate = theta_total * ds / T
    return E @ R0, p, rate * np.cross(axis, p - o), rate * axis


def _ref_streams(cfg):
    """Frames, IMU samples and contact flags, every pose evaluated afresh."""
    q = asymmetric_stance(ShapeSolverConfig())
    segs = _segments(cfg, q)
    starts = [s[1] for s in segs]
    t_end = segs[-1][2]

    def pose(t):
        return _ref_kinematics(segs[max(0, bisect_right(starts, t) - 1)], t)

    def flags(R, p):
        verts = (R @ q.T).T + p
        return tuple(verts[i, 2] - terrain_height(cfg, *verts[i, :2]) < CONTACT_TOL
                     for i in range(6))

    n_frames = int(round(t_end * cfg.imu_rate))
    frames = []
    for k in range(n_frames + 1):
        R, p, v, _ = pose(k / cfg.imu_rate)
        frames.append((R, v, p))
    dt = 1.0 / cfg.imu_rate
    imu = []
    for k in range(1, n_frames + 1):
        Rm, _, _, omega = pose((k - 0.5) * dt)
        R0, _, v0, _ = pose((k - 1) * dt)
        _, _, v1, _ = pose(k * dt)
        imu.append((k * dt, R0.T @ ((v1 - v0) / dt - GRAVITY), Rm.T @ omega))
    contacts = []
    for k in range(int(round(t_end * CONTACT_RATE)) + 1):
        R, p, _, _ = pose(k / CONTACT_RATE)
        contacts.append(flags(R, p))
    return frames, imu, contacts


@pytest.mark.parametrize("cfg", [
    SimConfig(maneuver="forward", target_length=0.6, dwell=0.5, final_dwell=0.2),
    SimConfig(maneuver="right_turn", target_length=1.2, dwell=0.5,
              final_dwell=0.2, imu_rate=1000.0),
    SimConfig(terrain="valley", target_length=2.0, dwell=0.5, final_dwell=0.2),
    SimConfig(maneuver="backward", target_length=0.6, dwell=0.5,
              final_dwell=0.2),
    # the benchmark workloads
    SimConfig(**WORKLOADS["turn_imu1k"].sim),
    SimConfig(**WORKLOADS["jacobian_fk"].sim),
    # every pivot starts on a sample of each grid, where tau = 0 takes
    # so3_exp's small-angle branch
    SimConfig(maneuver="forward", target_length=1.5, dwell=0.5,
              pivot_duration=0.5, final_dwell=0.25),
], ids=["forward", "right_turn", "valley", "backward", "turn_imu1k",
        "jacobian_fk", "pivots_on_samples"])
def test_generate_equals_reference_loop_bitwise(cfg):
    sim = generate(cfg)
    frames, imu, contacts = _ref_streams(cfg)
    assert len(sim.frames) == len(frames) and len(sim.imu) == len(imu)
    assert len(sim.contacts) == len(contacts)
    for f, (R, v, p) in zip(sim.frames, frames):
        assert f.rotation.tobytes() == R.tobytes()
        assert f.velocity.tobytes() == v.tobytes()
        assert f.position.tobytes() == p.tobytes()
    for s, (t, accel, gyro) in zip(sim.imu, imu):
        assert s.timestamp == t
        assert s.accel.tobytes() == accel.tobytes()
        assert s.gyro.tobytes() == gyro.tobytes()
    assert [c.flags for c in sim.contacts] == contacts
