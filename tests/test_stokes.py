import numpy as np

from conftest import random_field
from tgflow.spectral import (
    Field,
    build_basis,
    apply_modified_stokes,
    invert_modified_stokes,
    norms,
    to_coeffs,
    to_grid,
)


def test_single_mode_division(basis):
    i = 5
    lam = basis.lam[i]
    f = Field(np.eye(basis.n_modes)[i], basis)
    h = invert_modified_stokes(f)
    assert abs(h.coeffs[i] - 1.0 / (1.0 + basis.alpha1 * lam)) <= 1e-15
    assert np.max(np.abs(np.delete(h.coeffs, i))) == 0.0


def test_inverse_pair_both_sides(basis, rng):
    f = random_field(basis, rng)
    scale = np.max(np.abs(f.coeffs))
    there = apply_modified_stokes(invert_modified_stokes(f))
    back = invert_modified_stokes(apply_modified_stokes(f))
    assert np.max(np.abs(there.coeffs - f.coeffs)) <= 1e-12 * scale
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * scale


def test_collocation_residual(basis, rng):
    """h - alpha1 Lap h - f, with the Laplacian synthesised on the grid, projects to zero."""
    alpha1 = basis.alpha1
    f = random_field(basis, rng)
    h = invert_modified_stokes(f)
    g = to_grid(h, 2)  # slots 1, d_x, d_y, d_xx, d_xy, d_yy
    residual = g[:, 0] - alpha1 * (g[:, 3] + g[:, 5]) - to_grid(f)
    res_field = to_coeffs(basis, residual)
    assert norms(res_field, "L2") <= 1e-10 * norms(f, "L2")


def test_identity_when_alpha1_zero(basis, rng):
    f = random_field(build_basis(basis.max_mode, 0.0), rng)
    h = invert_modified_stokes(f)
    assert np.array_equal(h.coeffs, f.coeffs)
