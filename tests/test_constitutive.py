import math

import numpy as np

from conftest import random_field
from oracles import strain_quartic_oracle
from tgflow.spectral import Field, constitutive_terms


def test_zero_field_all_terms_vanish(basis, params):
    ct = constitutive_terms(Field(np.zeros(basis.n_modes), basis), params)
    assert np.all(ct.a == 0)
    assert np.all(ct.s == 0)
    assert np.all(ct.n == 0)
    assert np.all(ct.div_s.coeffs == 0)
    assert np.all(ct.div_n.coeffs == 0)
    assert np.all(ct.curl_v == 0)


def test_tensors_symmetric(basis, params, rng):
    y = random_field(basis, rng, amp=0.5)
    ct = constitutive_terms(y, params)
    defect = lambda t: np.max(np.abs(t[0, 1] - t[1, 0]))
    assert defect(ct.a) <= 1e-13
    assert defect(ct.s) <= 1e-13
    assert defect(ct.n) <= 1e-12


def test_cubic_dissipation_identity(basis, params, rng):
    """<div S(y), y> = -(beta/2) int |A(y)|^4, the sign mechanism of the
    energy estimate, against an independent quadrature oracle."""
    modes = [tuple(m) for m in basis.modes]
    for _ in range(5):
        y = random_field(basis, rng, amp=0.6)
        ct = constitutive_terms(y, params)
        pairing = float(np.sum(ct.div_s.coeffs * y.coeffs / basis.vmult))
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
    ct = constitutive_terms(Field(np.eye(basis.n_modes)[i], basis), params)
    x = math.pi * np.arange(basis.n_points) / basis.grid_size
    X, Y = x[:, None], x[None, :]
    # A11 = -A22 = 2 s m n cos cos, A12 = s (m^2 - n^2) sin sin
    expected = (
        8.0 * (s * m * n * np.cos(m * X) * np.cos(n * Y)) ** 2
        + 2.0 * (s * (m * m - n * n) * np.sin(m * X) * np.sin(n * Y)) ** 2
    )
    assert np.max(np.abs(ct.a_sq - expected)) <= 1e-10 * np.max(expected)


def test_curl_modified_velocity_single_mode(basis, params):
    """curl v(h_mn) = (1 + alpha1 lam) lam psi_mn for the scaled stream function."""
    i = 2
    m, n = basis.modes[i]
    lam = float(basis.lam[i])
    d = 1.0 + basis.alpha1 * lam
    s = 1.0 / math.sqrt(d * lam * math.pi ** 2 / 4.0)
    ct = constitutive_terms(Field(np.eye(basis.n_modes)[i], basis), params)
    x = math.pi * np.arange(basis.n_points) / basis.grid_size
    expected = d * lam * s * np.sin(m * x[:, None]) * np.sin(n * x[None, :])
    assert np.max(np.abs(ct.curl_v - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_nonnewtonian_tensor_energy_neutral(basis, params, rng):
    """(div N(y), y) = 0: every N contribution is a pure redistribution."""
    for _ in range(5):
        y = random_field(basis, rng, amp=0.6)
        ct = constitutive_terms(y, params)
        pairing = float(np.sum(ct.div_n.coeffs * y.coeffs / basis.vmult))
        scale = float(np.max(np.abs(ct.div_n.coeffs)) + 1e-30)
        assert abs(pairing) <= 1e-11 * max(scale, 1.0)
