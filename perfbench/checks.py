"""Output checks made apart from the program's own evaluation code.

Drift and path length are recomputed from the two TUM files with this
module's own parser, quaternion conversion, nearest-timestamp matching
and rotation fit (Horn's quaternion method, where tenseg.evaluate uses
an SVD), then compared with metrics.json.  The remaining checks test
properties the method must have: the acceptance drift bound, one unit
quaternion pose per post-calibration IMU sample, shape solves that
reproduce the true cable lengths to within the injected noise, and a
J_p that agrees with a central difference of two separate solves.
"""

from __future__ import annotations

import json

import numpy as np

from tenseg.shape import (
    CableMeasurements,
    RobotShape,
    ShapeError,
    ShapeSolverConfig,
    J_p,
    reconstruct_shape,
)

DRIFT_BOUND_PCT = 8.0      # acceptance criterion 2
MATCH_TOLERANCE_S = 0.005  # timestamp matching, as documented for evaluate
ALIGN_WINDOW_S = 3.0       # initial alignment window, as documented
# The two rotation fits solve the same problem by different algorithms,
# so they agree to rounding; the path length sums the same differences.
DRIFT_REL_TOL = 1e-9
PATH_REL_TOL = 1e-9
UNIT_QUAT_TOL = 1e-9
# Shape solves fit the nine measured lengths (exactly, unless a noisy
# frame lies past a fold of the map), so their error against the true
# lengths is about the injected noise itself: its RMS over
# 9 x SHAPE_FRAMES values stays within 1.5 sigma with a wide margin.
SHAPE_FRAMES = 10
SHAPE_NOISE_FACTOR = 1.5
SHAPE_EXACT_TOL = 1e-6     # [m], exact cable lengths
# J_p check: a step other than ShapeSolverConfig.fd_step and the
# agreement asked.  A frame counts as smooth when its solve fits the
# lengths exactly (a noisy frame past a fold of the length-to-shape map
# only has a least-squares fit, where the map has a kink) and the
# Jacobian's largest singular value is moderate (near a fold it grows
# without bound and the finite differences lose their accuracy).
JP_STEP = 5e-4
JP_EXACT_FIT = 1e-12       # [m^2], solve residual
JP_SMOOTH_SIGMA = 10.0
JP_FRAMES = 3
JP_MAX_TRIES = 12
JP_REL_TOL = 1e-2


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def read_tum(path):
    """(timestamps, positions, quaternions xyzw) from a TUM file."""
    rows = []
    with open(path) as f:
        for line in f:
            if line.strip():
                rows.append([float(v) for v in line.split()])
    a = np.array(rows)
    _require(a.ndim == 2 and a.shape[1] == 8, f"{path}: not 8 columns")
    return a[:, 0], a[:, 1:4], a[:, 4:8]


def quat_to_matrix(q):
    """Rotation matrix of a unit quaternion given as x, y, z, w."""
    x, y, z, w = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def nearest_matches(t_ref, t_est, tol):
    """For each reference time, the nearest estimate index (ties to the
    earlier) or -1 when it is further away than tol."""
    out = np.full(t_ref.size, -1)
    j = 0
    for i, t in enumerate(t_ref):
        while j + 1 < t_est.size and abs(t_est[j + 1] - t) < abs(t - t_est[j]):
            j += 1
        if abs(t_est[j] - t) <= tol:
            out[i] = j
    return out


def fit_rotation(M):
    """Rotation R maximizing trace(R^T M), by Horn's quaternion method."""
    S = M.T
    (sxx, sxy, sxz), (syx, syy, syz), (szx, szy, szz) = S
    N = np.array([
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
    ])
    _, vecs = np.linalg.eigh(N)
    w, x, y, z = vecs[:, -1]
    return quat_to_matrix((x, y, z, w))


def recompute_drift(est_path, ref_path):
    """(drift_pct, path_length_m) of estimate against ground truth."""
    t_est, p_est, q_est = read_tum(est_path)
    t_ref, p_ref, q_ref = read_tum(ref_path)
    match = nearest_matches(t_ref, t_est, MATCH_TOLERANCE_S)
    ref_idx = np.flatnonzero(match >= 0)
    _require(ref_idx.size >= 2, "fewer than two matched poses")
    est_idx = match[ref_idx]
    t0 = t_ref[ref_idx[0]]
    M = np.zeros((3, 3))
    src, dst = [], []
    for i, j in zip(ref_idx, est_idx):
        if t_ref[i] > t0 + ALIGN_WINDOW_S:
            break
        M += quat_to_matrix(q_ref[i]) @ quat_to_matrix(q_est[j]).T
        src.append(p_est[j])
        dst.append(p_ref[i])
    R = fit_rotation(M)
    t = np.mean(dst, axis=0) - R @ np.mean(src, axis=0)
    final_error = np.linalg.norm(R @ p_est[est_idx[-1]] + t - p_ref[ref_idx[-1]])
    path = float(np.sum(np.linalg.norm(np.diff(p_ref[ref_idx], axis=0), axis=1)))
    return 100.0 * final_error / path, path


def check_metrics(out_dir):
    """metrics.json agrees with the recomputation and meets the drift bound."""
    with open(f"{out_dir}/metrics.json") as f:
        metrics = json.load(f)
    drift, path = recompute_drift(f"{out_dir}/estimate.tum",
                                  f"{out_dir}/ground_truth.tum")
    _require(abs(path - metrics["path_length_m"]) <= PATH_REL_TOL * path,
             f"path length {metrics['path_length_m']} != recomputed {path}")
    _require(abs(drift - metrics["drift_pct"]) <= DRIFT_REL_TOL * drift,
             f"drift {metrics['drift_pct']} != recomputed {drift}")
    _require(metrics["drift_pct"] <= DRIFT_BOUND_PCT,
             f"drift {metrics['drift_pct']:.3f}% above {DRIFT_BOUND_PCT}%")
    return metrics


def check_poses(out_dir, imu_times, calibration_duration):
    """One unit-quaternion pose per IMU sample after the calibration."""
    t_est, p_est, q_est = read_tum(f"{out_dir}/estimate.tum")
    imu_times = np.asarray(imu_times)
    calib = imu_times[imu_times <= imu_times[0] + calibration_duration]
    expected = imu_times[imu_times > calib[-1]]
    _require(t_est.size == expected.size,
             f"{t_est.size} poses for {expected.size} IMU samples")
    _require(np.array_equal(t_est, expected), "pose timestamps != IMU samples")
    _require(np.all(np.isfinite(p_est)), "non-finite position")
    norm_err = np.max(np.abs(np.linalg.norm(q_est, axis=1) - 1.0))
    _require(norm_err <= UNIT_QUAT_TOL, f"quaternion norm off by {norm_err}")


def check_shapes(cables, body_shape, cable_noise, rng):
    """Solves of sampled cable frames reproduce the true cable lengths."""
    cfg = ShapeSolverConfig()
    truth = RobotShape(0.0, body_shape).cable_lengths()
    picks = rng.choice(len(cables), size=min(SHAPE_FRAMES, len(cables)),
                       replace=False)
    errors = [reconstruct_shape(cables[k], None, cfg).cable_lengths() - truth
              for k in sorted(picks)]
    rms = float(np.sqrt(np.mean(np.square(errors))))
    bound = SHAPE_NOISE_FACTOR * cable_noise if cable_noise > 0 else SHAPE_EXACT_TOL
    _require(rms <= bound, f"cable length RMS {rms:.2e} m above {bound:.2e} m")
    return rms


def check_jacobian(cables, rng):
    """J_p times a random direction matches a central difference.

    Frames are drawn at random and those that are not smooth (see
    JP_EXACT_FIT) are skipped.  Returns the number of frames checked.
    """
    cfg = ShapeSolverConfig()
    _require(JP_STEP != cfg.fd_step, "check step equals fd_step")
    checked = 0
    for k in rng.choice(len(cables), size=min(JP_MAX_TRIES, len(cables)),
                        replace=False):
        meas = cables[k]
        endcap = int(rng.integers(2, 6))   # q0, q1 are pinned
        direction = rng.normal(size=9)
        direction /= np.linalg.norm(direction)
        nominal = reconstruct_shape(meas, None, cfg)
        if nominal.residual > JP_EXACT_FIT:
            continue
        J = J_p(meas, endcap, cfg, prior=nominal)
        if np.linalg.norm(J, 2) > JP_SMOOTH_SIGMA:
            continue
        vec = meas.as_vector()
        ends = []
        for sign in (1.0, -1.0):
            pert = CableMeasurements.from_vector(
                meas.timestamp, vec + sign * JP_STEP * direction)
            try:
                ends.append(reconstruct_shape(pert, nominal, cfg).q[endcap])
            except ShapeError as err:
                raise CheckFailed(f"perturbed solve failed: {err}") from err
        fd = (ends[0] - ends[1]) / (2.0 * JP_STEP)
        err = np.linalg.norm(J @ direction - fd)
        _require(err <= JP_REL_TOL * max(np.linalg.norm(fd), 1e-3),
                 f"J_p direction derivative off by {err:.2e} at t={meas.timestamp}")
        checked += 1
        if checked == JP_FRAMES:
            break
    _require(checked > 0, "no smooth frame found for the J_p check")
    return checked
