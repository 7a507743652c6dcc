import math

import numpy as np
import pytest

from conftest import random_field
from tgflow import build_basis
from tgflow.errors import UnknownKind
from tgflow.spectral import NORM_KINDS, Field, norms, to_grid


def test_zero_field_all_kinds(basis):
    zero = Field(np.zeros(basis.n_modes), basis)
    for kind in NORM_KINDS:
        assert norms(zero, kind) == 0.0


def test_unknown_kind(basis):
    with pytest.raises(UnknownKind):
        norms(Field(np.zeros(basis.n_modes), basis), "H4")


def test_unit_mode_v_norm(basis):
    for i in (0, basis.n_modes - 1):
        assert abs(norms(Field(np.eye(basis.n_modes)[i], basis), "V") - 1.0) <= 1e-14


def test_w_norm_recomposed_from_definition(basis, rng):
    """||y||_W^2 = ||y||_V^2 + ||P v(y)||_2^2 recomputed by grid quadrature."""
    y = random_field(basis, rng)
    v_of_y = Field(y.coeffs * basis.vmult, basis)
    g = to_grid(v_of_y)
    pv_sq = basis.quad(g[0] ** 2 + g[1] ** 2)
    recomposed = norms(y, "V") ** 2 + pv_sq
    assert abs(norms(y, "W") ** 2 - recomposed) <= 1e-12 * recomposed


def test_h1_norm_from_grid_quadrature(basis, rng):
    y = random_field(basis, rng)
    g, jac = to_grid(y), to_grid(y, 1)[:, 1:]
    ref = math.sqrt(basis.quad(g[0] ** 2 + g[1] ** 2) + basis.quad(np.sum(jac ** 2, axis=(0, 1))))
    assert abs(norms(y, "H1") - ref) <= 1e-10 * ref


def test_sobolev_ladder_monotone(basis, rng):
    y = random_field(basis, rng)
    assert norms(y, "L2") <= norms(y, "H1") <= norms(y, "H2") <= norms(y, "H3")


def test_w14_grid_independence(params, rng):
    """The quartic quadrature is exact, so a finer grid changes nothing."""
    coarse = build_basis(4, params.alpha1, grid_size=16)
    fine = build_basis(4, params.alpha1, grid_size=32)
    c = rng.normal(size=coarse.n_modes) * 0.4
    n_coarse = norms(Field(c, coarse), "W14")
    n_fine = norms(Field(c, fine), "W14")
    assert abs(n_coarse - n_fine) <= 1e-11 * n_fine
