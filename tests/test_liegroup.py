import numpy as np
import pytest
from scipy.linalg import expm

from tenseg.liegroup import (
    GroupElement,
    adjoint,
    compose,
    embedding,
    from_embedding,
    hat,
    inverse,
    rotation_to_z,
    sek3_exp,
    sek3_log,
    skew,
    so3_exp,
    so3_log,
)

RNG = np.random.default_rng(1234)


def random_element(K=2, scale=1.0):
    R = so3_exp(RNG.normal(size=3) * scale)
    cols = RNG.normal(size=(3, K)) * scale
    return GroupElement(R, cols)


def test_skew_zero():
    assert np.array_equal(skew([0, 0, 0]), np.zeros((3, 3)))


def test_skew_basis_cross_product():
    np.testing.assert_allclose(skew([1, 0, 0]) @ [0, 1, 0], [0, 0, 1])


def test_skew_antisymmetry():
    S = skew([0.3, -1.2, 2.0])
    np.testing.assert_allclose(S.T, -S)


def test_skew_bilinear_identity():
    for _ in range(20):
        v, w = RNG.normal(size=3), RNG.normal(size=3)
        np.testing.assert_allclose(skew(v) @ w + skew(w) @ v, np.zeros(3), atol=1e-12)


def test_so3_exp_identity():
    np.testing.assert_allclose(so3_exp([0, 0, 0]), np.eye(3))


def test_so3_exp_quarter_turn():
    R = so3_exp([0, 0, np.pi / 2])
    np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_so3_exp_inverse_identity():
    for _ in range(20):
        phi = RNG.normal(size=3)
        np.testing.assert_allclose(so3_exp(phi) @ so3_exp(-phi), np.eye(3), atol=1e-12)


def test_so3_exp_matches_matrix_exponential():
    for _ in range(20):
        phi = RNG.normal(size=3)
        np.testing.assert_allclose(so3_exp(phi), expm(skew(phi)), atol=1e-12)


def test_so3_log_round_trip():
    for _ in range(100):
        phi = RNG.normal(size=3)
        n = np.linalg.norm(phi)
        if n >= np.pi - 1e-3:
            phi *= (np.pi - 1e-2) / n
        np.testing.assert_allclose(so3_log(so3_exp(phi)), phi, atol=1e-9)


def test_so3_small_angle_branch():
    phi = np.array([1e-10, -2e-10, 5e-11])
    np.testing.assert_allclose(so3_exp(phi), expm(skew(phi)), atol=1e-15)
    np.testing.assert_allclose(so3_log(so3_exp(phi)), phi, atol=1e-15)


def test_sek3_exp_identity():
    e = sek3_exp(np.zeros(9))
    np.testing.assert_allclose(e.rot, np.eye(3))
    np.testing.assert_allclose(e.cols, np.zeros((3, 2)))


def test_sek3_exp_zero_rotation_passes_columns_through():
    xi = np.zeros(9)
    xi[3:] = [1.0, 2.0, 3.0, -4.0, 0.5, 0.25]
    e = sek3_exp(xi)
    np.testing.assert_allclose(e.cols.T.ravel(), xi[3:])


def test_sek3_exp_matches_taylor_series_oracle():
    # Truncated power series of the dense embedding; 12 terms keeps the
    # truncation remainder below the 1e-9 comparison tolerance at ||xi||=1.
    for K in (2, 3, 4):
        for _ in range(10):
            xi = RNG.normal(size=3 * (1 + K))
            xi *= min(1.0, 1.0 / np.linalg.norm(xi))
            A = hat(xi, K)
            M = np.eye(3 + K)
            term = np.eye(3 + K)
            for n in range(1, 12):
                term = term @ A / n
                M = M + term
            np.testing.assert_allclose(embedding(sek3_exp(xi)), M, atol=1e-9)


def test_sek3_exp_rejects_bad_length():
    with pytest.raises(ValueError):
        sek3_exp(np.zeros(7))
    with pytest.raises(ValueError):
        sek3_exp(np.zeros(12), K=4)


def test_sek3_log_round_trip():
    for _ in range(20):
        xi = RNG.normal(size=12)
        xi[:3] *= (np.pi - 0.1) / max(np.pi, np.linalg.norm(xi[:3]))
        np.testing.assert_allclose(sek3_log(sek3_exp(xi)), xi, atol=1e-9)


def test_compose_inverse_is_identity():
    a = random_element()
    e = compose(a, inverse(a))
    np.testing.assert_allclose(e.rot, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(e.cols, np.zeros((3, 2)), atol=1e-12)


def test_compose_identity_left():
    b = random_element(K=3)
    e = compose(GroupElement.identity(K=3), b)
    np.testing.assert_allclose(e.rot, b.rot)
    np.testing.assert_allclose(e.cols, b.cols)


def test_compose_matches_dense_product_oracle():
    for _ in range(50):
        a, b = random_element(K=3), random_element(K=3)
        np.testing.assert_allclose(
            embedding(compose(a, b)), embedding(a) @ embedding(b), atol=1e-12
        )


def test_compose_rejects_K_mismatch():
    with pytest.raises(ValueError):
        compose(random_element(K=2), random_element(K=3))


def test_group_axioms_dense_oracle():
    for _ in range(100):
        a, b, c = (random_element(K=3) for _ in range(3))
        lhs = embedding(compose(compose(a, b), c))
        rhs = embedding(compose(a, compose(b, c)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)
        np.testing.assert_allclose(
            embedding(inverse(a)), np.linalg.inv(embedding(a)), atol=1e-9
        )


def test_adjoint_identity():
    np.testing.assert_allclose(adjoint(GroupElement.identity(K=2)), np.eye(9))


def test_adjoint_pure_rotation_block_diagonal():
    R = so3_exp([0.4, -0.2, 0.9])
    a = GroupElement(R, np.zeros((3, 2)))
    Ad = adjoint(a)
    for i in range(3):
        np.testing.assert_allclose(Ad[3 * i:3 * i + 3, 3 * i:3 * i + 3], R)
    off = Ad.copy()
    for i in range(3):
        off[3 * i:3 * i + 3, 3 * i:3 * i + 3] = 0.0
    np.testing.assert_allclose(off, np.zeros((9, 9)))


def test_adjoint_conjugation_oracle():
    for _ in range(50):
        a = random_element(K=3)
        xi = RNG.normal(size=a.dim)
        lhs = embedding(a) @ hat(xi, a.K) @ np.linalg.inv(embedding(a))
        rhs = hat(adjoint(a) @ xi, a.K)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_adjoint_homomorphism():
    for _ in range(20):
        a, b = random_element(), random_element()
        np.testing.assert_allclose(
            adjoint(compose(a, b)), adjoint(a) @ adjoint(b), atol=1e-8
        )


def test_rotation_stays_orthonormal_under_long_composition():
    a = GroupElement.identity()
    step = GroupElement(so3_exp([0.01, 0.02, -0.005]), RNG.normal(size=(3, 2)))
    for _ in range(5000):
        a = compose(a, step)
    np.testing.assert_allclose(a.rot @ a.rot.T, np.eye(3), atol=1e-9)
    assert abs(np.linalg.det(a.rot) - 1.0) < 1e-9


def test_from_embedding_round_trip():
    a = random_element(K=4)
    b = from_embedding(embedding(a))
    np.testing.assert_allclose(a.rot, b.rot)
    np.testing.assert_allclose(a.cols, b.cols)


@pytest.mark.parametrize("u", [
    [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
    [1e-13, 0.0, -1.0], [0.6, -0.0, 0.8], [0.36, -0.48, -0.8]])
def test_rotation_to_z_maps_u_to_ez(u):
    u = np.asarray(u) / np.linalg.norm(u)
    R = rotation_to_z(u)
    np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(R) - 1.0) < 1e-12
    np.testing.assert_allclose(R @ u, [0.0, 0.0, 1.0], atol=1e-12)
    # called with -u it takes u to -e_z instead
    np.testing.assert_allclose(rotation_to_z(-u) @ u, [0.0, 0.0, -1.0],
                               atol=1e-12)


def test_rotation_to_z_is_minimal():
    # no spin about the target: the rotation angle is the angle from u to e_z
    for u in RNG.normal(size=(200, 3)):
        u /= np.linalg.norm(u)
        angle = np.linalg.norm(so3_log(rotation_to_z(u)))
        assert abs(angle - np.arccos(np.clip(u[2], -1.0, 1.0))) < 1e-7
