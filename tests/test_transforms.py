import math

import numpy as np
import pytest

from conftest import random_field
from oracles import l2_norm_oracle, mode_hessian, mode_jacobian, mode_scale, mode_velocity
from tgflow import build_basis
from tgflow.errors import ShapeMismatch
from tgflow.spectral import (
    FIELDS,
    Field,
    fields,
    norms,
    project_div,
    signed_rows,
    to_coeffs,
    to_grid,
    trilinear_b,
)
from tgflow.state import solve_state
from tgflow.trajectory import Trajectory, time_grid


def test_roundtrip_identity(basis, rng):
    f = random_field(basis, rng)
    back = to_coeffs(basis, to_grid(f))
    scale = np.max(np.abs(f.coeffs))
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * scale


def test_l2_norm_matches_dense_quadrature(basis, rng):
    f = random_field(basis, rng)
    modes = [tuple(m) for m in basis.modes]
    ref = l2_norm_oracle(modes, f.coeffs, basis.alpha1, res=4 * basis.grid_size + 1)
    assert abs(norms(f, "L2") - ref) / ref <= 1e-10


def _named_fields(m, n, alpha1, x):
    """Every named field of the unit mode (m, n) on the grid nodes x, with a bound of its size.

    Velocity partials come from the analytic mode formulas; a, b, w, the spin
    w_v of v(h) and the partials of a and b are the hand-derived tensor products.
    A field with k derivatives is bounded by s lam^((k + 1) / 2), also where it vanishes.
    """
    s = mode_scale(m, n, alpha1)
    lam = float(m * m + n * n)
    bound = [s * lam ** ((k + 1) / 2) for k in range(3)]
    X, Y = x[:, None], x[None, :]
    sx, cx, sy, cy = np.sin(m * X), np.cos(m * X), np.sin(n * Y), np.cos(n * Y)
    vel = mode_velocity(m, n, alpha1, x)
    jac = mode_jacobian(m, n, alpha1, x)  # [i, j] = d_j h_i
    hess = mode_hessian(m, n, alpha1, x)  # [k, i, j] = d_k d_j h_i
    out = {}
    for i, c in enumerate("12"):
        out[f"u{c}"] = (vel[i], bound[0])
        out[f"u{c}_x"], out[f"u{c}_y"] = (jac[i, 0], bound[1]), (jac[i, 1], bound[1])
        out[f"u{c}_xx"], out[f"u{c}_xy"] = (hess[0, i, 0], bound[2]), (hess[0, i, 1], bound[2])
        out[f"u{c}_yy"] = (hess[1, i, 1], bound[2])
    d = m * m - n * n
    out.update(
        a=(2 * s * m * n * cx * cy, bound[1]),
        b=(s * d * sx * sy, bound[1]),
        w=(-s * lam * sx * sy, bound[1]),
        w_v=(-(1.0 + alpha1 * lam) * s * lam * sx * sy, (1.0 + alpha1 * lam) * bound[1]),
        a_x=(-2 * s * m * m * n * sx * cy, bound[2]),
        a_y=(-2 * s * m * n * n * cx * sy, bound[2]),
        b_x=(s * m * d * cx * sy, bound[2]),
        b_y=(s * n * d * sx * cy, bound[2]),
    )
    return out


def test_single_mode_derivatives_match_closed_forms(basis):
    """Synthesised values, first and second derivatives of single modes at the grid points.

    Through to_grid's slots, and through every named field of the table the
    rhs kernels synthesize, at M = 3 and 16; the modes with m = n, where b and
    its partials vanish, are held to the same bound.
    """
    x = math.pi * np.arange(basis.n_points) / basis.grid_size
    for i in (0, 5, 9, basis.n_modes - 1):
        m, n = basis.modes[i]
        f = Field(np.eye(basis.n_modes)[i], basis)
        hess = mode_hessian(m, n, basis.alpha1, x)  # [k, i, j] = d_k d_j h_i
        second = np.stack([hess[0, :, 0], hess[0, :, 1], hess[1, :, 1]], axis=1)
        pairs = [
            (to_grid(f), np.array(mode_velocity(m, n, basis.alpha1, x))),
            (to_grid(f, 1)[:, 1:], mode_jacobian(m, n, basis.alpha1, x)),
            (to_grid(f, 2)[:, 3:], second),  # d_xx, d_xy, d_yy
        ]
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    for max_mode in (3, 16):
        b = build_basis(max_mode, basis.alpha1)
        x = math.pi * np.arange(b.n_points) / b.grid_size
        for i in (0, 1, max_mode, max_mode + 2, b.n_modes - 1):
            m, n = b.modes[i]
            want = _named_fields(m, n, b.alpha1, x)
            assert set(want) == set(FIELDS)
            for name, (closed, bound) in want.items():
                got = to_grid(Field(np.eye(b.n_modes)[i], b), rows=fields(name))[0]
                assert np.max(np.abs(got - closed)) <= 1e-13 * bound, (max_mode, (m, n), name)


def test_project_div_of_strain_is_laplacian(basis, rng):
    """For divergence-free z, div A(z) = Lap z, whose coefficients are -lam z."""
    z = random_field(basis, rng)
    jac = to_grid(z, 1)[:, 1:]
    got = project_div(basis, jac + np.swapaxes(jac, 0, 1)).coeffs
    want = -basis.lam * z.coeffs
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_shape_mismatch_raises(basis):
    with pytest.raises(ShapeMismatch):
        to_coeffs(basis, np.zeros((2, 8, 8)))
    with pytest.raises(ShapeMismatch):
        Field(np.zeros(3), basis)


@pytest.mark.parametrize(
    "names",
    [("a_x", "b_x", "a_y", "b_y", "w", "a", "b", "u1", "u2"), ("u2", "-u1", "w_v", "-w_v", "a", "b")],
    ids=["fields", "signed_rows"],
)
def test_to_grid_of_a_stack_is_row_by_row(basis, rng, names):
    """rows of a (2, 3, n_modes) stack, a `fields` slice or `signed_rows`, are the rows of each
    coefficient vector synthesized alone, bit for bit."""
    signed = any(name.startswith("-") for name in names)
    rows = signed_rows(basis, *names) if signed else fields(*names)
    stack = rng.normal(size=(2, 3, basis.n_modes))
    got = to_grid(Field(stack, basis), rows=rows)
    want = [[to_grid(Field(c, basis), rows=rows) for c in pair] for pair in stack]
    assert got.shape == (2, 3, len(names), basis.n_points, basis.n_points)
    assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("steps", [1, 2])
def test_single_field_operations_refuse_a_stack(basis, params, rng, steps):
    """norms, partials by order (so trilinear_b) and the initial state of a solve take one
    field: a stack, even of one row, is a ShapeMismatch; so is a stack whose rows are not
    n_modes long."""
    f = Field(rng.normal(size=(steps, basis.n_modes)), basis)
    control = Trajectory(time_grid(0.5, 2), np.zeros((3, basis.n_modes)), basis, "control")
    for call in (
        lambda: norms(f, "V"),
        lambda: norms(f, "W14"),
        lambda: to_grid(f),
        lambda: to_grid(f, 2),
        lambda: trilinear_b(f, f, f),
        lambda: solve_state(f, control, params),
        lambda: Field(np.zeros((steps, basis.n_modes + 1)), basis),
    ):
        with pytest.raises(ShapeMismatch):
            call()


def test_to_grid_rejects_unknown_order(basis, rng):
    with pytest.raises(ValueError):
        to_grid(random_field(basis, rng), 3)
    with pytest.raises(ValueError):
        to_grid(random_field(basis, rng), -1)


def test_projection_kills_gradient_fields(basis, rng):
    """to_coeffs is the Leray projection: gradients contribute nothing."""
    f = random_field(basis, rng)
    g = to_grid(f)
    x = math.pi * np.arange(basis.n_points) / basis.grid_size
    X, Y = x[:, None], x[None, :]
    for m, n in [(1, 1), (2, 3)]:
        # grad of cos(m x) cos(n y) has the velocity parity classes
        g = g + np.stack(
            [-m * np.sin(m * X) * np.cos(n * Y), -n * np.cos(m * X) * np.sin(n * Y)]
        )
    back = to_coeffs(basis, g)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12


def test_parseval(basis, rng):
    f = random_field(basis, rng)
    g = to_grid(f)
    quad = math.sqrt(basis.quad(g[0] ** 2 + g[1] ** 2))
    assert abs(norms(f, "L2") - quad) <= 1e-10 * max(quad, 1e-30)


def test_quad_exact_below_twice_grid_size(basis):
    """The trapezoid rule integrates cos(k x) cos(l y) exactly for k, l < 2G, not at k = 2G."""
    G = basis.grid_size
    x = math.pi * np.arange(basis.n_points) / G

    def error(k, l):
        exact = math.pi ** 2 if k == l == 0 else 0.0
        return abs(basis.quad(np.outer(np.cos(k * x), np.cos(l * x))) - exact)

    assert max(error(k, l) for k in range(2 * G) for l in range(2 * G)) <= 1e-13
    # cos(2G x) is 1 at every node, so it aliases onto the mean: pi^2 in place of 0
    assert error(2 * G, 0) >= 1.0
    assert error(0, 2 * G) >= 1.0
