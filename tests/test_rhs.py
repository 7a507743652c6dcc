"""The fused right-hand-side kernels against the plain full-tensor assembly."""

import numpy as np
import pytest

from oracles import (
    adjoint_kernel_terms,
    adjoint_rhs_oracle,
    linearized_rhs_oracle,
    state_rhs_oracle,
)
from tgflow import build_basis, validate_params
from tgflow.adjoint import AdjointWork, adjoint_rhs_terms
from tgflow.errors import ShapeMismatch
from tgflow.linearized import LinearizedWork, linearized_rhs_coeffs
from tgflow.state import StateWork, state_rhs_coeffs

# the default model and one case for each constant the kernels branch on or drop
MODELS = {
    "default": dict(nu=1.0, alpha1=0.5, alpha2=-0.2, beta=0.4),
    "alpha1=0": dict(nu=1.0, alpha1=0.0, alpha2=-0.2, beta=0.4),
    "alpha2=0": dict(nu=1.0, alpha1=0.5, alpha2=0.0, beta=0.4),
    "beta=0": dict(nu=1.0, alpha1=0.5, alpha2=-0.5, beta=0.0),
}
CASES = [(m, name) for m in (3, 4, 8, 16) for name in MODELS]
TOL = 1e-13


def _setup(max_mode, model, seed=0):
    params = validate_params(**MODELS[model])
    basis = build_basis(max_mode, params.alpha1)
    rng = np.random.default_rng(seed + max_mode)
    y, z = 0.5 * rng.normal(size=(2, basis.n_modes)) / np.sqrt(1.0 + basis.lam)
    return basis, params, y, z


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("max_mode,model", CASES)
def test_state_rhs_matches_oracle(max_mode, model):
    basis, params, y, _ = _setup(max_mode, model)
    assert _rel(state_rhs_coeffs(basis, params, y), state_rhs_oracle(basis, params, y)) <= TOL


@pytest.mark.parametrize("max_mode,model", CASES)
def test_linearized_rhs_matches_oracle(max_mode, model):
    basis, params, y, z = _setup(max_mode, model)
    got = linearized_rhs_coeffs(basis, params, y, z)
    assert _rel(got, linearized_rhs_oracle(basis, params, y, z)) <= TOL


@pytest.mark.parametrize("max_mode,model", CASES)
def test_adjoint_terms_match_oracle(max_mode, model):
    basis, params, y, q = _setup(max_mode, model)
    inner, outer = adjoint_kernel_terms(basis, params, y, q)
    want_inner, want_outer = adjoint_rhs_oracle(basis, params, y, q)
    assert _rel(inner, want_inner) <= TOL
    assert _rel(outer, want_outer) <= TOL
    want = want_inner + basis.vmult * want_outer
    assert _rel(adjoint_rhs_terms(basis, params, y, q), want) <= TOL


@pytest.mark.parametrize("model", MODELS)
def test_linearized_rhs_is_jvp_of_state_rhs(model):
    """Central differences of the cubic state rhs along z, with the h^2 term
    removed by Richardson extrapolation (exact for a cubic), give F'(y)[z]."""
    basis, params, y, z = _setup(4, model)

    def central(h):
        up = state_rhs_coeffs(basis, params, y + h * z)
        down = state_rhs_coeffs(basis, params, y - h * z)
        return (up - down) / (2.0 * h)

    h = 1e-2
    jvp = (4.0 * central(h / 2.0) - central(h)) / 3.0
    assert _rel(jvp, linearized_rhs_coeffs(basis, params, y, z)) <= 1e-12


@pytest.mark.parametrize("max_mode", [3, 4, 8])
def test_alpha2_terms_are_pressures_in_the_oracle(max_mode):
    """In 2D A^2 and A B + B A are isotropic, so the oracle's full-tensor
    algebra gives the same coefficients with alpha2 = -0.2 and with alpha2 = 0."""
    basis, params, y, z = _setup(max_mode, "default")
    params0 = validate_params(**{**MODELS["default"], "alpha2": 0.0})
    assert params.alpha2 != 0.0
    assert _rel(state_rhs_oracle(basis, params, y), state_rhs_oracle(basis, params0, y)) <= TOL
    assert _rel(
        linearized_rhs_oracle(basis, params, y, z), linearized_rhs_oracle(basis, params0, y, z)
    ) <= TOL
    for got, want in zip(
        adjoint_rhs_oracle(basis, params, y, z), adjoint_rhs_oracle(basis, params0, y, z)
    ):
        assert _rel(got, want) <= TOL


KERNELS = {
    "state": (lambda basis, params, y, z: state_rhs_coeffs(basis, params, z), StateWork),
    "linearized": (linearized_rhs_coeffs, LinearizedWork),
    "adjoint": (adjoint_rhs_terms, AdjointWork),
}


# the shapes of (frozen state, coefficients) each kernel refuses without a workspace,
# n_modes = 16 at M = 4; the state kernel reads no frozen state
REFUSED = {
    "state": [(None, (17,)), (None, (2, 15)), (None, (2, 2, 16))],
    # a frozen state twice as wide was once read as two; two frozen states against a row
    "linearized": [((32,), (16,)), ((2, 16), (16,)), ((16,), (32,)), (None, (16,))],
    "adjoint": [((32,), (16,)), ((3, 16), (2, 16)), ((17,), (17,)), (None, (2, 16))],
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_return_a_row_for_a_row_and_a_stack_for_a_stack(kernel):
    """Each standalone kernel gives (n_modes,) for a row and (n, n_modes) for a stack of n
    steps, a stack longer than the window its workspace takes included; every row of a
    stack has the bytes of the call on that row alone.  Coefficients of another shape,
    or frozen states of another shape than the coefficients, raise ShapeMismatch."""
    basis, params, _, _ = _setup(4, "default")
    rhs, work = KERNELS[kernel]
    c = work(basis, params, frozen=np.zeros((1000, basis.n_modes))).window
    assert c > 2 and basis.n_modes == 16
    rng = np.random.default_rng(c)
    for n in (1, 2, c, c + 1):
        y, z = 0.5 * rng.normal(size=(2, n, basis.n_modes)) / np.sqrt(1.0 + basis.lam)
        rows = [rhs(basis, params, y[i], z[i]).copy() for i in range(n)]
        assert rows[0].shape == (basis.n_modes,)
        stack = rhs(basis, params, y, z)
        assert stack.shape == (n, basis.n_modes)
        assert np.array_equal(stack, rows), n
    for y_shape, z_shape in REFUSED[kernel]:
        y = None if y_shape is None else np.ones(y_shape)
        with pytest.raises(ShapeMismatch):
            rhs(basis, params, y, np.ones(z_shape))
