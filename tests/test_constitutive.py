import math
from dataclasses import replace

import numpy as np

from conftest import random_field
from oracles import frobenius, strain, strain_quartic_oracle, stress
from tgflow.spectral import Field, project_div, to_grid


def divergence(basis, params, y):
    """Leray-projected div of the stress of y under params, as coefficients."""
    t11, t12, t22 = stress(params, to_grid(y, 2))
    return project_div(basis, np.array([[t11, t12], [t12, t22]])).coeffs


def cubic(params):
    """Parameters whose stress is S(y) = beta |A|^2 A alone."""
    return replace(params, alpha1=0.0, alpha2=0.0)


def curl_v(y):
    """Scalar curl of the modified velocity v(y) = y - alpha1 Lap y on the grid."""
    v = to_grid(Field(y.coeffs * y.basis.vmult, y.basis), 1)
    return v[1, 1] - v[0, 2]


def test_zero_field_all_terms_vanish(basis, params):
    y = Field(np.zeros(basis.n_modes), basis)
    g = to_grid(y, 2)
    for t in (strain(g), stress(cubic(params), g), stress(replace(params, beta=0.0), g)):
        assert all(np.all(c == 0) for c in t)
    assert np.all(divergence(basis, cubic(params), y) == 0)
    assert np.all(divergence(basis, replace(params, beta=0.0), y) == 0)
    assert np.all(curl_v(y) == 0)


def test_cubic_dissipation_identity(basis, params, rng):
    """<div S(y), y> = -(beta/2) int |A(y)|^4, the sign mechanism of the
    energy estimate, against an independent quadrature oracle."""
    modes = [tuple(m) for m in basis.modes]
    for _ in range(5):
        y = random_field(basis, rng, amp=0.6)
        pairing = float(np.sum(divergence(basis, cubic(params), y) * y.coeffs / basis.vmult))
        quartic_ref = strain_quartic_oracle(
            modes, y.coeffs, basis.alpha1, res=4 * basis.grid_size + 1
        )
        ref = -0.5 * params.beta * quartic_ref
        assert abs(pairing - ref) <= 1e-8 * abs(ref)
        assert pairing <= 1e-12


def test_strain_magnitude_single_mode_symbolic(basis, params):
    """|A|^2 of one mode against the hand-derived closed form."""
    i = 6
    m, n = basis.modes[i]
    lam = float(basis.lam[i])
    s = 1.0 / math.sqrt((1.0 + basis.alpha1 * lam) * lam * math.pi ** 2 / 4.0)
    a = strain(to_grid(Field(np.eye(basis.n_modes)[i], basis), 1))
    x = math.pi * np.arange(basis.n_points) / basis.grid_size
    X, Y = x[:, None], x[None, :]
    # A11 = -A22 = 2 s m n cos cos, A12 = s (m^2 - n^2) sin sin
    expected = (
        8.0 * (s * m * n * np.cos(m * X) * np.cos(n * Y)) ** 2
        + 2.0 * (s * (m * m - n * n) * np.sin(m * X) * np.sin(n * Y)) ** 2
    )
    assert np.max(np.abs(frobenius(a, a) - expected)) <= 1e-10 * np.max(expected)


def test_curl_modified_velocity_single_mode(basis, params):
    """curl v(h_mn) = (1 + alpha1 lam) lam psi_mn for the scaled stream function."""
    i = 2
    m, n = basis.modes[i]
    lam = float(basis.lam[i])
    d = 1.0 + basis.alpha1 * lam
    s = 1.0 / math.sqrt(d * lam * math.pi ** 2 / 4.0)
    curl = curl_v(Field(np.eye(basis.n_modes)[i], basis))
    x = math.pi * np.arange(basis.n_points) / basis.grid_size
    expected = d * lam * s * np.sin(m * x[:, None]) * np.sin(n * x[None, :])
    assert np.max(np.abs(curl - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_nonnewtonian_tensor_energy_neutral(basis, params, rng):
    """(div N(y), y) = 0: every N contribution is a pure redistribution."""
    for _ in range(5):
        y = random_field(basis, rng, amp=0.6)
        div_n = divergence(basis, replace(params, beta=0.0), y)
        pairing = float(np.sum(div_n * y.coeffs / basis.vmult))
        scale = float(np.max(np.abs(div_n)) + 1e-30)
        assert abs(pairing) <= 1e-11 * max(scale, 1.0)
