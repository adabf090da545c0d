"""Matrix Lie group primitives: SO(3) and SE_K(3).

SE_K(3) elements carry a rotation plus K translation-like columns
(velocity, position, and any number of contact points).  The dense
(3+K)x(3+K) block-matrix embedding is only materialized on demand; the
filter works with the (rotation, columns) pair directly so that growing
K during contact augmentation stays cheap.

Tangent vectors are flat arrays ordered [xi_R, xi_col0, xi_col1, ...],
length 3*(1+K).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this angle the exp/log/Jacobian series are evaluated with their
# second-order Taylor expansions to avoid catastrophic cancellation.
SMALL_ANGLE = 1e-8

# Re-orthonormalize whenever ||R R^T - I||_inf exceeds this.
ORTHO_TOL = 1e-9

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def skew(v):
    """Skew-symmetric matrix such that skew(v) @ w == cross(v, w)."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def so3_exp(phi):
    """Rodrigues formula, with a series branch for small angles."""
    # np.linalg.norm of a 1-D vector is this dot product of a contiguous copy
    phi = np.ascontiguousarray(phi, dtype=float)
    theta = np.sqrt(phi.dot(phi))
    S = skew(phi)
    if theta < SMALL_ANGLE:
        return _EYE3 + S + 0.5 * (S @ S)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / theta**2
    return _EYE3 + a * S + b * (S @ S)


def so3_log(R):
    """Rotation vector of R. Valid for angles below pi."""
    R = np.asarray(R, dtype=float)
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    w = 0.5 * np.array([R[2, 1] - R[1, 2],
                        R[0, 2] - R[2, 0],
                        R[1, 0] - R[0, 1]])
    if theta < SMALL_ANGLE:
        return w
    return (theta / np.sin(theta)) * w


def so3_left_jacobian(phi):
    """Left Jacobian J_l of SO(3), series branch for small angles."""
    phi = np.ascontiguousarray(phi, dtype=float)
    theta = np.sqrt(phi.dot(phi))
    S = skew(phi)
    if theta < SMALL_ANGLE:
        return _EYE3 + 0.5 * S + (S @ S) / 6.0
    a = (1.0 - np.cos(theta)) / theta**2
    b = (theta - np.sin(theta)) / theta**3
    return _EYE3 + a * S + b * (S @ S)


def rotation_to_z(u):
    """Minimal rotation R with R @ u == e_z for a unit vector u.

    Antiparallel u (u == -e_z) has no unique minimal rotation; the half
    turn about the x-axis is used.
    """
    axis = np.cross(u, [0.0, 0.0, 1.0])
    s = np.linalg.norm(axis)
    c = u[2]
    if s < 1e-12:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    return so3_exp(axis / s * np.arctan2(s, c))


def project_rotation(R):
    """Nearest rotation matrix (polar projection via SVD)."""
    U, _, Vt = np.linalg.svd(R)
    D = np.eye(3)
    D[2, 2] = np.sign(np.linalg.det(U @ Vt))
    return U @ D @ Vt


def _orthonormalized(R):
    if np.abs(R @ R.T - _EYE3).max() > ORTHO_TOL:
        return project_rotation(R)
    return R


@dataclass(frozen=True)
class GroupElement:
    """Element of SE_K(3): rotation plus K columns, K >= 2.

    Columns are stored as a (3, K) array; by convention column 0 is
    velocity, column 1 is position, and columns 2.. are contact points.
    Immutable: arrays are copied in and marked read-only.
    """

    rot: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        rot = _orthonormalized(np.array(self.rot, dtype=float))
        cols = np.array(self.cols, dtype=float)
        if rot.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if cols.ndim != 2 or cols.shape[0] != 3 or cols.shape[1] < 2:
            raise ValueError("columns must be (3, K) with K >= 2")
        rot.flags.writeable = False
        cols.flags.writeable = False
        object.__setattr__(self, "rot", rot)
        object.__setattr__(self, "cols", cols)

    @classmethod
    def _successor(cls, rot, cols):
        """Element from fresh (3, 3) and (3, K) arrays the caller gives up.

        Skips the copies and shape checks of the public constructor but
        keeps its re-orthonormalization; the arrays become read-only.
        """
        rot = _orthonormalized(rot)
        rot.flags.writeable = False
        cols.flags.writeable = False
        elem = object.__new__(cls)
        vars(elem).update(rot=rot, cols=cols)
        return elem

    @property
    def K(self):
        return self.cols.shape[1]

    @property
    def dim(self):
        """Tangent-space dimension 3*(1+K)."""
        return 3 * (1 + self.K)

    @staticmethod
    def identity(K=2):
        return GroupElement(np.eye(3), np.zeros((3, K)))


def embedding(a: GroupElement):
    """Dense (3+K)x(3+K) block-matrix view (used mainly by test oracles)."""
    n = 3 + a.K
    M = np.eye(n)
    M[:3, :3] = a.rot
    M[:3, 3:] = a.cols
    return M


def from_embedding(M):
    M = np.asarray(M, dtype=float)
    return GroupElement(M[:3, :3], M[:3, 3:])


def hat(xi, K=None):
    """Dense Lie-algebra matrix for a flat tangent vector."""
    xi = np.asarray(xi, dtype=float)
    if K is None:
        if xi.size % 3 != 0 or xi.size < 9:
            raise ValueError("tangent vector length must be 3*(1+K), K >= 2")
        K = xi.size // 3 - 1
    if xi.size != 3 * (1 + K):
        raise ValueError("tangent vector length inconsistent with K")
    M = np.zeros((3 + K, 3 + K))
    M[:3, :3] = skew(xi[:3])
    M[:3, 3:] = xi[3:].reshape(K, 3).T
    return M


def sek3_exp(xi, K=None):
    """Exponential map of SE_K(3)."""
    xi = np.asarray(xi, dtype=float)
    if K is None:
        if xi.size % 3 != 0 or xi.size < 9:
            raise ValueError("tangent vector length must be 3*(1+K), K >= 2")
        K = xi.size // 3 - 1
    if xi.size != 3 * (1 + K):
        raise ValueError("tangent vector length inconsistent with K")
    phi = xi[:3]
    R = so3_exp(phi)
    J = so3_left_jacobian(phi)
    cols = J @ xi[3:].reshape(K, 3).T
    return GroupElement._successor(R, cols)


def sek3_log(a: GroupElement):
    """Inverse of sek3_exp, valid for rotation angles below pi."""
    phi = so3_log(a.rot)
    Jinv = np.linalg.inv(so3_left_jacobian(phi))
    xi = np.empty(a.dim)
    xi[:3] = phi
    xi[3:] = (Jinv @ a.cols).T.ravel()
    return xi


def compose(a: GroupElement, b: GroupElement):
    if a.K != b.K:
        raise ValueError(f"column count mismatch: {a.K} vs {b.K}")
    return GroupElement._successor(a.rot @ b.rot, a.rot @ b.cols + a.cols)


def inverse(a: GroupElement):
    Rt = a.rot.T
    return GroupElement(Rt, -(Rt @ a.cols))


def adjoint(a: GroupElement):
    """Adjoint matrix: embedding(a) hat(xi) embedding(a)^-1 == hat(Ad xi)."""
    n = a.dim
    Ad = np.zeros((n, n))
    Ad[:3, :3] = a.rot
    for i in range(a.K):
        r = 3 * (1 + i)
        Ad[r:r + 3, :3] = skew(a.cols[:, i]) @ a.rot
        Ad[r:r + 3, r:r + 3] = a.rot
    return Ad
