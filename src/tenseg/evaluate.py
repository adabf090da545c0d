"""Trajectory evaluation: alignment, drift, and relative pose error.

The estimator's world frame is anchored at its starting pose with
unobservable yaw, so estimated trajectories are first rigidly aligned
(rotation + translation, no scale) to ground truth over the first
WINDOW seconds before any error is computed.  Drift is the final
position error as a percentage of ground-truth path length; RPE is the
RMS translation error over consecutive SEGMENT_LENGTH segments of
ground-truth arc length.  Estimate and reference samples pair up when
their timestamps lie within TOLERANCE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .liegroup import project_rotation

WINDOW = 3.0            # initial alignment window [s]
TOLERANCE = 0.005       # timestamp association tolerance [s]
SEGMENT_LENGTH = 1.0    # RPE segment length [m]


class EvaluationError(Exception):
    pass


@dataclass(frozen=True)
class Trajectory:
    timestamps: np.ndarray        # (N,)
    positions: np.ndarray         # (N, 3)
    rotations: np.ndarray         # (N, 3, 3)

    def __post_init__(self):
        t = np.array(self.timestamps, dtype=float)
        p = np.array(self.positions, dtype=float)
        if t.ndim != 1 or p.shape != (t.size, 3):
            raise ValueError("need (N,) timestamps and (N, 3) positions")
        if t.size < 2:
            raise ValueError("trajectory needs at least two samples")
        if np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        R = np.array(self.rotations, dtype=float)
        if R.shape != (t.size, 3, 3):
            raise ValueError("rotations must be (N, 3, 3)")
        for name, a in (("timestamps", t), ("positions", p), ("rotations", R)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def length(self):
        """Polyline arc length of the position track."""
        return float(np.sum(np.linalg.norm(np.diff(self.positions, axis=0),
                                           axis=1)))


@dataclass(frozen=True)
class MetricsReport:
    path_length: float
    final_error: float
    drift_pct: float
    rpe_rmse: float
    n_segments: int
    # matched reference samples, reference-minus-estimate (not in as_dict)
    timestamps: np.ndarray = field(default=None, compare=False, repr=False)
    position_errors: np.ndarray = field(default=None, compare=False, repr=False)

    def as_dict(self):
        return {
            "path_length_m": self.path_length,
            "final_error_m": self.final_error,
            "drift_pct": self.drift_pct,
            "rpe_rmse_m_per_m": self.rpe_rmse,
            "rpe_segments": self.n_segments,
        }


def drift_percent(final_error, path_length):
    """Final position error as a percentage of distance travelled."""
    if path_length <= 0:
        raise EvaluationError("path length must be positive")
    return 100.0 * final_error / path_length


def _associate(est: Trajectory, ref: Trajectory):
    """Indices pairing each reference sample with its nearest estimate."""
    idx = np.searchsorted(est.timestamps, ref.timestamps)
    idx = np.clip(idx, 1, est.timestamps.size - 1)
    left = est.timestamps[idx - 1]
    right = est.timestamps[idx]
    use_left = np.abs(ref.timestamps - left) <= np.abs(right - ref.timestamps)
    idx = np.where(use_left, idx - 1, idx)
    ok = np.abs(est.timestamps[idx] - ref.timestamps) <= TOLERANCE
    if not np.any(ok):
        raise EvaluationError("no overlapping samples within tolerance")
    return idx, ok


def align_initial(est: Trajectory, ref: Trajectory):
    """Rigidly align the estimate to the reference over the initial window.

    The rotation is the chordal mean of the per-sample orientation
    offsets over the window (robust even when the window is stationary
    or the path is nearly straight); the translation then matches the
    window's position centroids.  Returns (aligned_estimate, rotation,
    translation).
    """
    idx, ok = _associate(est, ref)
    t0 = ref.timestamps[ok][0]
    sel = ok & (ref.timestamps <= t0 + WINDOW)
    R = project_rotation(np.einsum("nij,nkj->ik", ref.rotations[sel],
                                   est.rotations[idx[sel]]))
    t = ref.positions[sel].mean(axis=0) - R @ est.positions[idx[sel]].mean(axis=0)
    aligned = Trajectory(est.timestamps, (R @ est.positions.T).T + t,
                         np.einsum("ij,njk->nik", R, est.rotations))
    return aligned, R, t


def drift_metrics(est: Trajectory, ref: Trajectory) -> MetricsReport:
    """Drift and per-meter RPE of an aligned estimate against ground truth."""
    idx, ok = _associate(est, ref)
    ref_pos = ref.positions[ok]
    est_pos = est.positions[idx[ok]]
    d = np.linalg.norm(np.diff(ref_pos, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(d)])
    path_length = float(arc[-1])
    final_error = float(np.linalg.norm(est_pos[-1] - ref_pos[-1]))

    errors = []
    start = 0
    for k in range(1, arc.size):
        if arc[k] - arc[start] >= SEGMENT_LENGTH:
            d_ref = ref_pos[k] - ref_pos[start]
            d_est = est_pos[k] - est_pos[start]
            errors.append(np.linalg.norm(d_est - d_ref))
            start = k
    rpe = float(np.sqrt(np.mean(np.square(errors)))) if errors else 0.0
    return MetricsReport(
        path_length=path_length,
        final_error=final_error,
        drift_pct=drift_percent(final_error, path_length),
        rpe_rmse=rpe,
        n_segments=len(errors),
        timestamps=ref.timestamps[ok],
        position_errors=ref_pos - est_pos,
    )


def evaluate_run(est: Trajectory, ref: Trajectory) -> MetricsReport:
    """Convenience wrapper: align on the initial window, then score."""
    return drift_metrics(align_initial(est, ref)[0], ref)
