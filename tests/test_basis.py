import numpy as np
import pytest

from oracles import gram_matrices
from tgflow import build_basis
from tgflow.spectral import MAX_GRID_SIZE, Field, min_grid_size, to_grid


def test_single_mode_basis():
    b = build_basis(1, alpha1=0.0)
    assert b.n_modes == 1
    assert tuple(b.modes[0]) == (1, 1)
    assert b.lam[0] == 2.0


def test_mode_ordering_lexicographic(basis):
    modes = [tuple(m) for m in basis.modes]
    assert modes == sorted(modes)
    assert len(set(modes)) == basis.n_modes == basis.max_mode ** 2


def test_grid_size_floor():
    with pytest.raises(ValueError):
        build_basis(4, alpha1=0.5, grid_size=min_grid_size(4) - 1)
    build_basis(4, alpha1=0.5, grid_size=min_grid_size(4))


def test_grid_size_cap():
    """Above MAX_GRID_SIZE the basis is refused before anything is allocated."""
    with pytest.raises(ValueError, match="above the maximum"):
        build_basis(2, alpha1=0.5, grid_size=MAX_GRID_SIZE + 1)
    assert build_basis(2, alpha1=0.5, grid_size=MAX_GRID_SIZE).n_points == MAX_GRID_SIZE + 1


@pytest.mark.parametrize("max_mode", [3, 4])
def test_grid_2m_is_rejected(max_mode):
    """G = 2M leaves degree-4M quadratures inexact; 2M + 1 is the floor."""
    with pytest.raises(ValueError):
        build_basis(max_mode, alpha1=0.5, grid_size=2 * max_mode)
    build_basis(max_mode, alpha1=0.5, grid_size=2 * max_mode + 1)


def test_modes_divergence_free(basis):
    worst = 0.0
    for i in range(basis.n_modes):
        jac = to_grid(Field(np.eye(basis.n_modes)[i], basis), 1)[:, 1:]
        worst = max(worst, float(np.max(np.abs(jac[0, 0] + jac[1, 1]))))
    assert worst <= 1e-12


def test_boundary_traces_vanish(basis):
    """No penetration and no tangential stress on all four walls."""
    edges = [0, basis.grid_size]  # grid lines x = 0 and x = pi (same for y)
    worst = 0.0
    for i in range(basis.n_modes):
        f = Field(np.eye(basis.n_modes)[i], basis)
        g, jac = to_grid(f), to_grid(f, 1)[:, 1:]
        d12 = 0.5 * (jac[0, 1] + jac[1, 0])
        for e in edges:
            worst = max(worst, float(np.max(np.abs(g[0][e, :]))))
            worst = max(worst, float(np.max(np.abs(g[1][:, e]))))
            worst = max(worst, float(np.max(np.abs(d12[e, :]))))
            worst = max(worst, float(np.max(np.abs(d12[:, e]))))
    assert worst <= 1e-12


def test_v_orthonormality_against_dense_gram(basis):
    modes = [tuple(m) for m in basis.modes]
    _, gram_v, _ = gram_matrices(modes, basis.alpha1, res=4 * basis.grid_size + 1)
    assert np.max(np.abs(gram_v - np.eye(basis.n_modes))) <= 1e-10


def test_mu_against_dense_gram(basis):
    """(h, h)_W = mu (h, h)_V with both Grams assembled by quadrature."""
    modes = [tuple(m) for m in basis.modes]
    _, gram_v, gram_w = gram_matrices(modes, basis.alpha1, res=4 * basis.grid_size + 1)
    ratio = np.diag(gram_w) / np.diag(gram_v)
    assert np.max(np.abs(ratio - basis.mu) / basis.mu) <= 1e-10
    # off-diagonal W entries vanish as well: the modes are joint eigenfunctions
    off = gram_w - np.diag(np.diag(gram_w))
    assert np.max(np.abs(off)) <= 1e-10


def test_mu_closed_form(basis):
    assert np.allclose(basis.mu, 2.0 + basis.alpha1 * basis.lam, rtol=0, atol=0)
    assert np.allclose(basis.lam, basis.modes[:, 0] ** 2 + basis.modes[:, 1] ** 2)
