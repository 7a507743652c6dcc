import numpy as np
import pytest

from conftest import random_field
from oracles import trilinear_oracle
from tgflow import build_basis
from tgflow.spectral import (
    Field,
    advect,
    fields,
    project,
    slots,
    to_coeffs,
    to_grid,
    trilinear_b,
)


def test_skew_symmetry(basis, rng):
    """b(y, z, phi) = -b(y, phi, z) for divergence-free y."""
    for _ in range(10):
        y = random_field(basis, rng)
        z = random_field(basis, rng)
        phi = random_field(basis, rng)
        val = trilinear_b(y, z, phi)
        assert abs(val + trilinear_b(y, phi, z)) <= 1e-10 * max(abs(val), 1e-6)


def test_self_cancellation(basis, rng):
    y = random_field(basis, rng)
    z = random_field(basis, rng)
    assert abs(trilinear_b(y, z, z)) <= 1e-10


def test_zero_arguments(basis, rng):
    zero = Field(np.zeros(basis.n_modes), basis)
    y = random_field(basis, rng)
    z = random_field(basis, rng)
    assert trilinear_b(zero, y, z) == 0.0
    assert trilinear_b(y, zero, z) == 0.0
    assert trilinear_b(y, z, zero) == 0.0


def test_single_mode_triples_against_dense_quadrature(basis, rng):
    modes = [tuple(m) for m in basis.modes]
    res = 4 * basis.grid_size + 1
    eye = np.eye(basis.n_modes)
    for i, j, k in [(0, 1, 2), (3, 5, 7), (2, 2, 9), (10, 4, 1)]:
        got = trilinear_b(Field(eye[i], basis), Field(eye[j], basis), Field(eye[k], basis))
        ref = trilinear_oracle(modes, eye[i], eye[j], eye[k], basis.alpha1, res)
        assert abs(got - ref) <= 1e-10 * max(abs(ref), 1.0)


def test_random_fields_against_dense_quadrature(basis, rng):
    modes = [tuple(m) for m in basis.modes]
    res = 4 * basis.grid_size + 1
    phi = random_field(basis, rng)
    z = random_field(basis, rng)
    y = random_field(basis, rng)
    got = trilinear_b(phi, z, y)
    ref = trilinear_oracle(modes, phi.coeffs, z.coeffs, y.coeffs, basis.alpha1, res)
    assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-8)


@pytest.mark.parametrize("max_mode", [3, 4, 8, 16])
def test_lamb_form_projects_like_convection(max_mode, rng):
    """(u . grad) u = grad(|u|^2 / 2) + w (u2, -u1), and the exact projection
    drops the gradient; so do the linearized and adjoint convection terms.
    This pressure argument is what lets the rhs kernels skip the Jacobian."""
    basis = build_basis(max_mode, 0.5)
    y, z = (random_field(basis, rng) for _ in range(2))
    gy, gz = to_grid(y, 1), to_grid(z, 1)
    spin = fields("w")
    w_y, w_z = (to_grid(f, rows=spin)[0] for f in (y, z))

    def close(grid, lamb):
        got, want = to_coeffs(basis, grid).coeffs, to_coeffs(basis, lamb).coeffs
        return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def turned(w, g):  # w (g2, -g1) for the velocity g[:, 0]
        return np.array([w * g[1, 0], -w * g[0, 0]])

    assert close(advect(gy, gy), turned(w_y, gy))
    assert close(advect(gy, gz) + advect(gz, gy), turned(w_z, gy) + turned(w_y, gz))
    # adjoint force (grad q)^T v + (q . grad) v with v = v(y): w_v (q2, -q1)
    gv = to_grid(Field(y.coeffs * basis.vmult, basis), 1)
    w_v = to_grid(Field(y.coeffs * basis.vmult, basis), rows=spin)[0]
    force = gz[0, 1:] * gv[0, 0] + gz[1, 1:] * gv[1, 0] + advect(gz, gv)
    assert close(force, turned(w_v, gz))
    # (y . grad) z - (z . grad) y = curl(psi), psi = z1 y2 - z2 y1 = 0 on the walls,
    # pairs with h as -(psi, w(h))
    psi = gz[0, 0] * gy[1, 0] - gz[1, 0] * gy[0, 0]
    got = to_coeffs(basis, advect(gy, gz) - advect(gz, gy)).coeffs
    want = -project(basis, psi[None], slots("w"))[0]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
