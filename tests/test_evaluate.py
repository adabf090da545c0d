import numpy as np
import pytest

from tenseg.evaluate import (
    WINDOW,
    EvaluationError,
    MetricsReport,
    Trajectory,
    align_initial,
    drift_metrics,
    drift_percent,
    evaluate_run,
)
from tenseg.liegroup import so3_exp

RNG = np.random.default_rng(77)


def level(t, p):
    """Trajectory with identity orientations."""
    return Trajectory(t, p, np.tile(np.eye(3), (len(t), 1, 1)))


def line_trajectory(n=200, dt=0.05, speed=0.5):
    t = np.arange(n) * dt
    p = np.zeros((n, 3))
    p[:, 0] = speed * t
    return level(t, p)


def transform(traj, R, t_vec):
    return Trajectory(traj.timestamps, (R @ traj.positions.T).T + t_vec,
                      np.einsum("ij,njk->nik", R, traj.rotations))


def test_trajectory_validation():
    with pytest.raises(ValueError):
        level([0.0, 0.0], np.zeros((2, 3)))
    with pytest.raises(ValueError):
        level([0.0, 1.0], np.zeros((3, 3)))
    with pytest.raises(ValueError):
        level([0.0], np.zeros((1, 3)))
    with pytest.raises(ValueError, match="rotations"):
        Trajectory([0.0, 1.0], np.zeros((2, 3)), np.zeros((3, 3, 3)))


def test_length_straight_line():
    assert abs(line_trajectory().length() - 0.5 * 199 * 0.05) < 1e-12


def test_length_circle_oracle():
    t = np.linspace(0.0, 1.0, 2001)
    ang = 2 * np.pi * t
    p = np.column_stack([np.cos(ang), np.sin(ang), np.zeros_like(ang)])
    traj = level(t, p)
    assert abs(traj.length() - 2 * np.pi) < 1e-4


def test_drift_percent_table_arithmetic():
    assert abs(drift_percent(0.3275, 7.50) - 4.37) < 0.005


def test_drift_percent_rejects_zero_length():
    with pytest.raises(EvaluationError):
        drift_percent(0.1, 0.0)


def test_align_recovers_rigid_transform():
    # helix whose orientation turns with it: the rotation fit recovers
    # the frame offset, and the whole estimate maps onto the reference
    t = np.arange(200) * 0.05
    p = np.column_stack([np.cos(t), np.sin(t), 0.2 * t])
    ref = Trajectory(t, p, [so3_exp([0.0, 0.1 * a, a]) for a in t])
    R = so3_exp([0.1, -0.3, 0.8])
    est = transform(ref, R.T, np.array([-2.0, 1.0, 0.5]))
    aligned, R_fit, _ = align_initial(est, ref)
    np.testing.assert_allclose(aligned.positions, ref.positions, atol=1e-9)
    np.testing.assert_allclose(aligned.rotations, ref.rotations, atol=1e-9)
    np.testing.assert_allclose(R_fit, R, atol=1e-9)


def test_align_stationary_window_uses_orientation():
    # stationary over the whole window: positions say nothing about yaw,
    # orientations do
    n = 100
    t = np.arange(n) * 0.05
    p = np.zeros((n, 3))
    start = int(WINDOW / 0.05) + 2
    p[start:, 0] = np.linspace(0.0, 1.0, n - start)
    ref = level(t, p)
    yaw = so3_exp([0.0, 0.0, 0.6])
    est = transform(ref, yaw.T, np.array([0.3, -0.2, 0.0]))
    # orientation drift after the window does not enter the fit
    rot = est.rotations.copy()
    rot[start:] = so3_exp([0.0, 0.2, 0.3]) @ rot[start:]
    est = Trajectory(est.timestamps, est.positions, rot)
    aligned, R_fit, _ = align_initial(est, ref)
    np.testing.assert_allclose(R_fit, yaw, atol=1e-9)
    np.testing.assert_allclose(aligned.positions, ref.positions, atol=1e-9)


def test_perfect_estimate_scores_zero():
    ref = line_trajectory(n=400)
    rep = evaluate_run(ref, ref)
    assert rep.final_error == 0.0
    assert rep.drift_pct == 0.0
    assert rep.rpe_rmse == 0.0
    assert rep.n_segments == int(ref.length())


def test_linear_drift_rpe():
    # estimate drifts sideways at a constant rate per meter travelled
    ref = line_trajectory(n=801, speed=1.0)
    rate = 0.03
    p = ref.positions.copy()
    p[:, 1] += rate * p[:, 0]
    est = level(ref.timestamps, p)
    rep = drift_metrics(est, ref)
    assert abs(rep.rpe_rmse - rate) < 1e-6
    assert abs(rep.final_error - rate * ref.length()) < 1e-9


def test_metrics_report_dict_round_trip():
    rep = MetricsReport(7.5, 0.3275, 4.37, 0.09, 7)
    d = rep.as_dict()
    assert d["path_length_m"] == 7.5
    assert d["drift_pct"] == 4.37


def test_association_tolerance():
    ref = line_trajectory(n=100)
    shifted = level(ref.timestamps + 1000.0, ref.positions)
    with pytest.raises(EvaluationError):
        drift_metrics(shifted, ref)


def test_association_with_offset_timebases():
    # estimate sampled twice as fast with a sub-tolerance offset
    ref = line_trajectory(n=100, dt=0.05, speed=1.0)
    t_est = np.arange(200) * 0.025 + 0.002
    p_est = np.zeros((200, 3))
    p_est[:, 0] = t_est
    est = level(t_est, p_est)
    rep = drift_metrics(est, ref)
    assert rep.final_error < 0.01
    assert rep.rpe_rmse < 0.01
